"""Round-4 batch G: percentile-rank normalization, contamination map,
co-purchase mining."""

import re

import numpy as np
import pandas as pd
import ray.data

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q183

def test_percentile_rank_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q183_percentile_rank"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    for lang, sub in docs.groupby("lang"):
        vals = sub["n_chars"].to_numpy()
        n = len(vals)
        for did, v in zip(sub["doc_id"], vals):
            below = int((vals < v).sum())
            want = below * PPM // max(n - 1, 1)
            have = int(got[got["doc_id"] == did]["pct_ppm"].iloc[0])
            assert have == want, did
    assert len(got) == len(docs)
    # percentiles live in [0, 1e6]
    assert (got["pct_ppm"] >= 0).all() and (got["pct_ppm"] <= PPM).all()


# ------------------------------------------------------------------- q184

def test_source_contamination_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q184_source_contamination"](SF)
    pairs = QUERIES["q14_ngram_jaccard"](SF)
    if hasattr(pairs, "to_pandas"):
        pairs = pairs.to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet").set_index("doc_id")
    want: dict = {}
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        sa, sb = docs.loc[int(a), "source"], docs.loc[int(b), "source"]
        key = (min(sa, sb), max(sa, sb))
        want[key] = want.get(key, 0) + 1
    have = {
        (r["src_a"], r["src_b"]): int(r["n_pairs"]) for _, r in got.iterrows()
    }
    assert have == want
    assert sum(want.values()) == len(pairs)


# ------------------------------------------------------------------- q185

def test_copurchase_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import BASKET_SUPPORT

    got = QUERIES["q185_copurchase"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    b = li[["l_orderkey", "l_partkey"]].drop_duplicates()
    singles = b.groupby("l_partkey").size()
    freq = set(singles[singles >= BASKET_SUPPORT].index)
    want: dict = {}
    for _, sub in b.groupby("l_orderkey"):
        parts = sorted(p for p in sub["l_partkey"].unique() if p in freq)
        for i, pa_ in enumerate(parts):
            for pb in parts[i + 1:]:
                want[(int(pa_), int(pb))] = want.get((int(pa_), int(pb)), 0) + 1
    want = {k: v for k, v in want.items() if v >= BASKET_SUPPORT}
    have = {
        (int(r["part_a"]), int(r["part_b"])): int(r["support"])
        for _, r in got.iterrows()
    }
    assert have == want


def test_copurchase_apriori_prune_is_lossless(ray_session):
    """Downward closure: dropping infrequent singles cannot drop a
    frequent pair — verified by brute force WITHOUT the prune."""
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import BASKET_SUPPORT

    got = QUERIES["q185_copurchase"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    b = li[["l_orderkey", "l_partkey"]].drop_duplicates()
    want: dict = {}
    for _, sub in b.groupby("l_orderkey"):
        parts = sorted(sub["l_partkey"].unique())
        for i, pa_ in enumerate(parts):
            for pb in parts[i + 1:]:
                want[(int(pa_), int(pb))] = want.get((int(pa_), int(pb)), 0) + 1
    want = {k: v for k, v in want.items() if v >= BASKET_SUPPORT}
    have = {
        (int(r["part_a"]), int(r["part_b"])): int(r["support"])
        for _, r in got.iterrows()
    }
    assert have == want
