"""HTML stripper: raw HTML → paragraphs ("divs") + links + header metadata.

Semantics follow the reference's single-pass HtmlStripper (ref:
trhtmlstripper.pas:595-704): start capturing at ``<body>`` (or everywhere
when absent), split text into divs at break tags (``div p li h1-h6
blockquote td article section`` …, ref :181-184), drop the subtrees of
``script style head form applet code audio video`` (ref :179-180), skip
comments/CDATA, collapse whitespace, collect ``<a href>`` values, and
extract doctype + meta charset from the header (ref :566-591).

One regex-tokenizer pass per document; this is inherently per-string work
(the reference is a char-level state machine) and runs inside
``map_batches`` stages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

TAG_TOKEN_RE = re.compile(r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<[^>]*>", re.DOTALL)

BREAK_TAGS = frozenset(
    "div p li h1 h2 h3 h4 h5 h6 blockquote td article section tr table ul ol br".split()
)
DROP_TAGS = frozenset("script style head form applet code audio video noscript svg iframe".split())

HREF_RE = re.compile(r"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE)
CHARSET_META_RE = re.compile(
    r"""charset\s*=\s*["']?([A-Za-z0-9_\-]+)""", re.IGNORECASE
)
DOCTYPE_RE = re.compile(r"<!doctype\s+([^>]*)>", re.IGNORECASE)
WS_RE = re.compile(r"\s+")

MAX_LINK_LEN = 512  # href length clamp (ref: trhtmlstripper.pas:372-414)


CONTAINER_CLASSES = {"p": 1, "div": 2, "li": 3, "td": 4, "h1": 5, "h2": 5,
                     "h3": 5, "h4": 5, "h5": 5, "h6": 5, "blockquote": 6}


@dataclass
class DivInfo:
    """One paragraph with the tag statistics the deboilerplater consumes
    (ref: trdata.pas:176-277 TTrDiv — OpenTags/CloseTags/Anchors/Container)."""

    text: str
    open_tags: int = 0
    close_tags: int = 0
    anchors: int = 0
    container: int = 0  # CONTAINER_CLASSES of the break tag that closed it
    skipped: int = 0    # dropped subtrees encountered inside


@dataclass
class StripResult:
    divs: list[str] = field(default_factory=list)
    div_infos: list[DivInfo] = field(default_factory=list)
    links: list[str] = field(default_factory=list)
    title: str = ""
    meta_charset: str = ""
    doctype: str = ""


IMG_TAG_RE = re.compile(r"<img\b[^>]*>", re.IGNORECASE)
SRC_ATTR_RE = re.compile(r"""src\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE)
ALT_ATTR_RE = re.compile(r"""alt\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE)
FIGURE_RE = re.compile(r"<figure\b[^>]*>(.*?)</figure>", re.IGNORECASE | re.DOTALL)
FIGCAP_RE = re.compile(r"<figcaption\b[^>]*>(.*?)</figcaption>", re.IGNORECASE | re.DOTALL)


def _attr(m_tag: str, attr_re: re.Pattern) -> str:
    m = attr_re.search(m_tag)
    if not m:
        return ""
    return (m.group(1) or m.group(2) or m.group(3) or "").strip()


def extract_images(raw: str) -> list[tuple[str, str]]:
    """(src, caption) pairs in document order — the image+caption harvest.

    Caption precedence: a non-empty ``alt`` attribute wins; an ``<img>``
    inside a ``<figure>`` falls back to its ``<figcaption>`` text
    (tags stripped, whitespace collapsed).  A separate additive pass so
    ``strip_html``'s div/link semantics (pinned by crawl fixtures) are
    untouched."""
    figures: list[tuple[int, int, str]] = []
    for fm in FIGURE_RE.finditer(raw):
        cap_m = FIGCAP_RE.search(fm.group(1))
        figcap = (
            WS_RE.sub(" ", TAG_TOKEN_RE.sub("", cap_m.group(1))).strip()
            if cap_m
            else ""
        )
        figures.append((fm.start(), fm.end(), figcap))
    out: list[tuple[str, str]] = []
    for im in IMG_TAG_RE.finditer(raw):
        tag = im.group(0)
        src = _attr(tag, SRC_ATTR_RE)
        if not src or len(src) > MAX_LINK_LEN:
            continue
        caption = _attr(tag, ALT_ATTR_RE)
        if not caption:
            p = im.start()
            for s, e, figcap in figures:
                if s <= p < e:
                    caption = figcap
                    break
        out.append((src, caption))
    return out


def strip_html(raw: str) -> StripResult:
    res = StripResult()
    m = DOCTYPE_RE.search(raw[:512])
    if m:
        res.doctype = m.group(1).strip().lower()

    body_pos = raw.lower().find("<body")
    capture_from = body_pos if body_pos >= 0 else 0
    head = raw[:body_pos] if body_pos > 0 else raw[:4096]
    cm = CHARSET_META_RE.search(head)
    if cm:
        res.meta_charset = cm.group(1).lower()
    tm = re.search(r"<title[^>]*>(.*?)</title>", head, re.IGNORECASE | re.DOTALL)
    if tm:
        res.title = WS_RE.sub(" ", tm.group(1)).strip()

    text = raw[capture_from:]
    buf: list[str] = []
    drop_depth = 0
    pos = 0
    n_open = n_close = n_anchor = n_skipped = 0

    def flush(container: int):
        nonlocal n_open, n_close, n_anchor, n_skipped
        if buf:
            s = WS_RE.sub(" ", "".join(buf)).strip()
            buf.clear()
            if s:
                res.divs.append(s)
                res.div_infos.append(
                    DivInfo(
                        text=s, open_tags=n_open, close_tags=n_close,
                        anchors=n_anchor, container=container, skipped=n_skipped,
                    )
                )
        n_open = n_close = n_anchor = n_skipped = 0

    for m in TAG_TOKEN_RE.finditer(text):
        if drop_depth == 0 and m.start() > pos:
            buf.append(text[pos : m.start()])
        pos = m.end()
        tok = m.group(0)
        if tok.startswith("<!--") or tok.startswith("<!["):
            continue
        inner = tok[1:-1].strip()
        if not inner or inner.startswith("!"):
            continue
        closing = inner.startswith("/")
        # a tag with no name (``</>``, ``<//>``) gets name "", like ``</ /p>``
        words = inner.lstrip("/").split(None, 1)
        name = words[0].split("/", 1)[0].lower() if words else ""
        if name in DROP_TAGS:
            if inner.endswith("/"):
                continue
            if closing:
                drop_depth = max(0, drop_depth - 1)
            else:
                drop_depth += 1
                n_skipped += 1
            continue
        if drop_depth > 0:
            continue
        if closing:
            n_close += 1
        else:
            n_open += 1
        if name == "a" and not closing:
            n_anchor += 1
            hm = HREF_RE.search(inner)
            if hm:
                href = (hm.group(1) or hm.group(2) or hm.group(3) or "").strip()
                if 0 < len(href) <= MAX_LINK_LEN:
                    res.links.append(href)
        if name in BREAK_TAGS:
            flush(CONTAINER_CLASSES.get(name, 0))
    if drop_depth == 0 and pos < len(text):
        buf.append(text[pos:])
    flush(0)
    return res
