"""Round-4 batch V: tokenizer fertility, payload storage, caption dirt."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q228

def test_fertility_matches_serial(ray_session):
    import re
    from collections import Counter

    from texrex_ray.functions.bpe import (
        bpe_encode_sequential,
        bpe_train_sequential,
    )
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q228_tokenizer_fertility"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    tok = re.compile(r"[a-z]+")
    wc = Counter()
    for t in docs["text"]:
        wc.update(tok.findall(t.lower()))
    merges = [
        (l, r) for l, r, _ in bpe_train_sequential(dict(wc), n_merges=12)
    ]
    enc = bpe_encode_sequential(
        dict(zip(docs["doc_id"], docs["text"])), merges
    )
    want = {}
    for lang, sub in docs.groupby("lang"):
        n_words = sum(enc[d][0] for d in sub["doc_id"])
        n_sub = sum(enc[d][1] for d in sub["doc_id"])
        want[lang] = (len(sub), n_words, n_sub, n_sub * PPM // n_words)
    have = {
        r["lang"]: (
            int(r["n_docs"]), int(r["n_words"]), int(r["n_subwords"]),
            int(r["fertility_ppm"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    for _, _, n_sub, fert in have.values():
        assert fert >= PPM  # BPE never merges across words


# ------------------------------------------------------------------- q229

def test_payload_storage_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q229_payload_storage"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    want = {}
    for fmt, sub in imgs.groupby("fmt"):
        sb = int(sub["bytes"].map(len).sum())
        px = int((sub["w"].astype(int) * sub["h"].astype(int)).sum())
        raw = int(
            (sub["w"].astype(int) * sub["h"].astype(int) * 3 + 12).sum()
        )
        want[fmt] = (len(sub), sb, px, sb * 1000 // px, sb * PPM // raw)
    have = {
        r["fmt"]: (
            int(r["n_images"]), int(r["sum_bytes"]), int(r["sum_px"]),
            int(r["bytes_per_kpx"]), int(r["vs_raw_ppm"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # the synthetic container stores raw pixels + 12-byte header, so the
    # ratio sits just above 1:1 raw for every format
    for *_, ratio in have.values():
        assert PPM <= ratio <= PPM + 10_000


# ------------------------------------------------------------------- q230

def test_caption_dirt_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import DIRT_PATTERNS

    got = QUERIES["q230_caption_dirt"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    want = {}
    for fmt, sub in imgs.groupby("fmt"):
        cap = sub["caption"]
        row = [len(sub)]
        for pat in DIRT_PATTERNS.values():
            row.append(int(cap.str.contains(pat, regex=True).sum()))
        row.append(int(cap.str.contains(" ", regex=False).sum()))
        row.append(int(cap.str.contains("​", regex=False).sum()))
        want[fmt] = tuple(row)
    have = {
        r["fmt"]: tuple(int(v) for v in r.iloc[1:])
        for _, r in got.iterrows()
    }
    assert have == want
    # the fixture captions are dirty by construction — the audit must
    # see dirt, else the q45 cleaning chain is being tested on nothing
    assert sum(v[1] for v in have.values()) > 0  # entities present
    assert sum(v[5] for v in have.values()) > 0  # NBSP present
