"""Round-4 batch P: BM25 retrieval, image patchify, Jain fairness."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q210

def test_bm25_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import BM25_TERMS, BM25_TOPK

    got = QUERIES["q210_bm25"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    tok = re.compile(r"[a-z]+")
    toks = {r["doc_id"]: tok.findall(r["text"].lower()) for _, r in docs.iterrows()}
    n_docs = len(docs)
    t_all = sum(len(v) for v in toks.values())
    df = {
        q: sum(1 for v in toks.values() if q in v) for q in BM25_TERMS
    }
    scores = {}
    for did, v in toks.items():
        dl = len(v)
        s = 0
        for q in BM25_TERMS:
            tf = v.count(q)
            if tf == 0:
                continue
            idf = n_docs * PPM // df[q]
            s += (idf * (44 * tf * t_all)) // (
                20 * tf * t_all + 6 * t_all + 18 * dl * n_docs
            )
        if s > 0:
            scores[did] = s
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:BM25_TOPK]
    have = [(int(r["doc_id"]), int(r["score_c"])) for _, r in got.iterrows()]
    assert have == want
    # scores strictly positive and sorted
    sc = [s for _, s in have]
    assert sc == sorted(sc, reverse=True) and all(s > 0 for s in sc)


def test_bm25_tf_saturation_identity():
    # 44*tf*T/(20*tf*T + 6*T + 18*dl*N) == tf*(k1+1)/(tf+k1*(1-b+b*dl/avgdl))
    # for k1=6/5, b=3/4, avgdl=T/N — exact rational identity
    from fractions import Fraction

    k1, b = Fraction(6, 5), Fraction(3, 4)
    for tf, dl, T, N in [(1, 10, 1000, 7), (5, 3, 999, 13), (2, 50, 500, 5)]:
        avgdl = Fraction(T, N)
        lhs = Fraction(44 * tf * T, 20 * tf * T + 6 * T + 18 * dl * N)
        rhs = tf * (k1 + 1) / (tf + k1 * (1 - b + b * Fraction(dl) / avgdl))
        assert lhs == rhs


# ------------------------------------------------------------------- q211

def test_image_patcher_conserves_pixels(ray_session):
    from texrex_ray.sources.images import encode_image
    from texrex_ray.stages.images import ImagePatcher

    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (50, 37, 3), dtype=np.uint8)  # ragged dims
    raw = encode_image(px, "png")
    batch = pa.table({"image_id": ["x"], "bytes": [raw]})
    out = ImagePatcher()(batch).to_pandas()
    assert len(out) == 16
    assert out["n_px"].sum() == 50 * 37
    s = px.astype(np.int64).sum(axis=(0, 1))
    assert out["sum_r"].sum() == s[0]
    assert out["sum_g"].sum() == s[1]
    assert out["sum_b"].sum() == s[2]
    # tile extents tile the image exactly
    assert (
        out.groupby("tile_row")["tile_h"].first().sum() == 50
    )
    assert (
        out.groupby("tile_col")["tile_w"].first().sum() == 37
    )


def test_image_patches_fixture_fresh(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q211_image_patches"](SF)
    fix = (
        pd.read_parquet(
            "/root/repo/tests/fixtures/oracle/image_patches_n300_s42.parquet"
        )
        .sort_values(["image_id", "tile_row", "tile_col"])
        .reset_index(drop=True)
    )
    assert got.equals(fix)


# ------------------------------------------------------------------- q212

def test_jain_fairness_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q212_jain_fairness"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    want = {}
    for et, sub in ev.groupby("event_type"):
        x = sub.groupby("user_id").size().to_numpy().astype(int)
        n = len(x)
        jain = int(x.sum()) ** 2 * PPM // (n * int((x**2).sum()))
        want[et] = (n, jain, int(x.min()), int(x.max()))
    have = {
        r["event_type"]: (
            int(r["n_users"]), int(r["jain_ppm"]),
            int(r["min_load"]), int(r["max_load"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # bounds: 1/n <= jain <= 1
    for n, jain, _, _ in have.values():
        assert PPM // n <= jain <= PPM
