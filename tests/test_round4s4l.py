"""Round-4 session-4 batch L: IBLT reconcile, SQ8 recall, largest blob."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q370

def test_iblt_roundtrip_random_sets():
    from texrex_ray.pipelines.queries.census_c import iblt_insert, iblt_peel, iblt_size

    rng = np.random.default_rng(17)
    for trial in range(5):
        universe = rng.choice(100_000, 400, replace=False)
        a = set(map(int, universe[:250]))
        b = set(map(int, universe[150:]))
        m = iblt_size(len(a ^ b))
        cells = np.zeros((m, 3), np.int64)
        iblt_insert(cells, np.array(sorted(a), np.int64), +1)
        iblt_insert(cells, np.array(sorted(b), np.int64), -1)
        oa, ob, ok = iblt_peel(cells)
        assert ok
        assert oa == a - b and ob == b - a


def test_iblt_query_matches_exact_sets(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q370_iblt_reconcile"](SF).iloc[0]
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts", "user_id"])
    day = ev["ts"].astype("datetime64[us]").astype(np.int64) \
        // 86_400_000_000
    day = day - day.min()
    key = ev["user_id"] * 64 + day % 7
    week = day // 7
    a = set(key[week == 0].astype(int))
    b = set(key[week == 1].astype(int))
    assert int(got["n_week0"]) == len(a)
    assert int(got["n_week1"]) == len(b)
    assert int(got["peel_ok"]) == 1
    assert int(got["n_recovered"]) == len(a ^ b)
    assert int(got["n_diff"]) == len(a ^ b)


# ------------------------------------------------------------------- q371

def test_sq8_recall_matches_full_matrix(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _SQ_K, _SQ_NQ, _embed_int

    got = QUERIES["q371_sq8_recall"](SF).iloc[0]
    t = pd.read_parquet(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(np.int64)
    E = np.stack([_embed_int(e) for e in t["embedding"]])
    lo = E.min(axis=0)
    span = np.maximum(E.max(axis=0) - lo, 1)
    Ez = (E - lo) * 255 // span
    hits = 0
    for qi in np.argsort(ids)[:_SQ_NQ]:
        not_self = ids != ids[qi]
        sel = {}
        for kind, s in (("exact", E @ E[qi]), ("quant", Ez @ Ez[qi])):
            o = np.lexsort((ids, -s))
            o = o[not_self[o]][:_SQ_K]
            sel[kind] = set(ids[o])
        hits += len(sel["exact"] & sel["quant"])
    assert int(got["total_hits"]) == hits
    assert int(got["mean_recall_ppm"]) == hits * 1_000_000 // (
        _SQ_NQ * _SQ_K)


# ------------------------------------------------------------------- q372

def test_largest_blob_tiny_cases():
    from texrex_ray.stages.images import LargestBlob

    st = LargestBlob.__new__(LargestBlob)
    st.thresh = 383
    dark = np.zeros((4, 4, 3), np.uint8)
    assert st._largest(dark) == (0, 0)
    img = np.zeros((4, 6, 3), np.uint8)
    img[0, 0:2] = 255   # 2-px blob, bbox 2
    img[2:4, 3:6] = 255  # 6-px blob, bbox 6
    assert st._largest(img) == (6, 6)
    # L-shape: size 5, bbox 3x3 = 9
    img2 = np.zeros((5, 5, 3), np.uint8)
    for y, x in ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)):
        img2[y, x] = 255
    assert st._largest(img2) == (5, 9)


def test_largest_blob_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q372_largest_blob"](SF)
    assert int(got["n_images"].sum()) == 300
    assert (got["sum_blob_size"] <= got["sum_bbox_area"]).all()
    assert (got["max_blob_size"] > 0).all()
