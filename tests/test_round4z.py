"""Round-4 batch Z: OOV rate, exact image dedup, resize plan."""

import hashlib
import re
from collections import Counter

import pandas as pd

SF = "/root/testdata/sf0.001"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------------------------- q240

def test_oov_rate_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import N_FOLDS, VOCAB_K

    got = QUERIES["q240_oov_rate"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    fold = docs["doc_id"].map(
        lambda i: int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[8:], "little"
        ) % N_FOLDS
    )
    train = docs[fold != 0]
    c = Counter()
    for t in train["text"]:
        c.update(TOK.findall(t.lower()))
    ordered = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = {w for w, _ in ordered[:VOCAB_K]}
    want = {}
    ev = docs[fold == 0]
    for lang, sub in ev.groupby("lang"):
        n_tok = n_oov = 0
        for t in sub["text"]:
            ws = TOK.findall(t.lower())
            n_tok += len(ws)
            n_oov += sum(1 for w in ws if w not in vocab)
        want[lang] = (n_tok, n_oov, n_oov * PPM // n_tok)
    have = {
        r["lang"]: (int(r["n_tokens"]), int(r["n_oov"]), int(r["oov_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the truncated vocab must leave a real OOV tail
    assert sum(v[1] for v in have.values()) > 0


# ------------------------------------------------------------------- q241

def test_image_exact_dedup_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q241_image_exact_dedup"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    want = {}
    for fmt, sub in imgs.groupby("fmt"):
        g = Counter(bytes(b) for b in sub["bytes"])
        n = len(sub)
        uniq = len(g)
        reclaim = sum((c - 1) * len(b) for b, c in g.items())
        total = sum(len(b) for b in sub["bytes"])
        want[fmt] = (n, uniq, n - uniq, total, reclaim)
    have = {
        r["fmt"]: (
            int(r["n_images"]), int(r["n_unique"]), int(r["n_dup_rows"]),
            int(r["sum_bytes"]), int(r["reclaim_bytes"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # the fixture plants real duplicates — the op must find them
    assert sum(v[2] for v in have.values()) > 0


# ------------------------------------------------------------------- q242

def test_resize_plan_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import MAX_EDGE

    got = QUERIES["q242_resize_plan"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    want = {}
    for fmt, sub in imgs.groupby("fmt"):
        n = len(sub)
        n_res = before = after = 0
        for w, h in zip(sub["w"].astype(int), sub["h"].astype(int)):
            e = max(w, h)
            if e > MAX_EDGE:
                nw = max(w * MAX_EDGE // e, 1)
                nh = max(h * MAX_EDGE // e, 1)
            else:
                nw, nh = w, h
            n_res += (nw, nh) != (w, h)
            before += w * h
            after += nw * nh
        want[fmt] = (n, n_res, before, after, (before - after) * PPM // before)
    have = {
        r["fmt"]: (
            int(r["n_images"]), int(r["n_resized"]), int(r["px_before"]),
            int(r["px_after"]), int(r["saved_ppm"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # resized dims never exceed the cap
    for fmt, (n, n_res, before, after, _) in want.items():
        assert after <= before
