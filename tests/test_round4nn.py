"""Round-4 batch NN: KLL sketch, systematic PPS sample, Otsu threshold."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q280

def test_kll_exact_below_capacity(ray_session):
    from texrex_ray.ops.kll import build_sketch, quantile, sketch_weight

    vals = np.sort(np.array([5, 1, 9, 3, 7], dtype=np.int64))
    sk = build_sketch(vals, k=64)
    assert sketch_weight(sk) == 5
    # below capacity the sketch is lossless: quantiles are exact
    assert quantile(sk, 1, 2) == 5    # ceil(0.5*5)=3rd value
    assert quantile(sk, 1, 10) == 1
    assert quantile(sk, 99, 100) == 9


def test_kll_weight_conservation_and_bound(ray_session):
    from texrex_ray.ops.kll import (
        build_sketch, merge_sketches, quantile, rank_error_bound,
        sketch_weight,
    )

    rng = np.random.default_rng(9)
    a = np.sort(rng.integers(0, 10_000, 4_000).astype(np.int64))
    b = np.sort(rng.integers(0, 10_000, 6_000).astype(np.int64))
    sa, sb = build_sketch(a, 64), build_sketch(b, 64)
    assert sketch_weight(sa) == 4_000
    assert sketch_weight(sb) == 6_000
    m = merge_sketches(sa, sb, 64)
    assert sketch_weight(m) == 10_000
    allv = np.sort(np.concatenate([a, b]))
    bound = rank_error_bound(10_000, 64)
    for qn, qd in [(1, 10), (1, 2), (9, 10), (99, 100)]:
        est = quantile(m, qn, qd)
        target = -(-qn * 10_000 // qd)
        true_rank = int((allv < est).sum())
        assert abs(true_rank - target) <= bound, (qn, qd, true_rank, target)


def test_kll_query_matches_serial(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import KLL_BUCKETS, KLL_K, KLL_STATS
    from texrex_ray.ops.kll import (
        build_sketch, merge_sketches, quantile, rank_error_bound,
    )

    got = QUERIES["q280_kll_quantiles"](SF)
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    keys = [f"{int(o)}:{int(l)}" for o, l in
            zip(li["l_orderkey"], li["l_linenumber"])]
    li["bucket"] = (md5_lower64(keys) % np.uint64(KLL_BUCKETS)).astype(int)
    li["c"] = np.rint(li["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    merged: list = []
    for b in sorted(li["bucket"].unique()):
        sk = build_sketch(np.sort(li.loc[li["bucket"] == b, "c"].to_numpy()),
                          KLL_K)
        merged = merge_sketches(merged, sk, KLL_K) if merged else sk
    n = len(li)
    allv = np.sort(li["c"].to_numpy())
    want = {}
    for stat, qn, qd in KLL_STATS:
        est = quantile(merged, qn, qd)
        target = -(-qn * n // qd)
        below = int((allv < est).sum())
        want[stat] = (est, below, n, target, abs(below - target))
    have = {
        r["stat"]: (int(r["est_c"]), int(r["n_below"]), int(r["n_total"]),
                    int(r["target_rank"]), int(r["err_rank"]))
        for _, r in got.iterrows()
    }
    assert have == want
    bound = rank_error_bound(n, KLL_K)
    assert all(v[4] <= bound for v in want.values())
    # quantile estimates are monotone in q
    assert (have["p10"][0] <= have["p50"][0]
            <= have["p90"][0] <= have["p99"][0])


# ------------------------------------------------------------------- q281

def test_systematic_sample_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import SAMPLE_N

    got = QUERIES["q281_systematic_sample"](SF)
    docs = (
        pd.read_parquet(f"{SF}/documents.parquet",
                        columns=["doc_id", "n_chars"])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    w = int(docs["n_chars"].sum())
    lo = docs["n_chars"].cumsum().shift(fill_value=0).astype(int)
    hi = lo + docs["n_chars"]
    mult = hi * SAMPLE_N // w - lo * SAMPLE_N // w
    sel = docs[mult > 0].assign(mult=mult[mult > 0])
    assert got[["doc_id", "n_chars", "mult"]].values.tolist() == \
        sel[["doc_id", "n_chars", "mult"]].values.tolist()
    # floor telescoping: total multiplicity is exactly SAMPLE_N
    assert int(got["mult"].sum()) == SAMPLE_N
    # PPS property: every selected doc spans >= 1 sampling interval,
    # and any doc bigger than W/SAMPLE_N MUST be selected
    big = docs[docs["n_chars"] * SAMPLE_N > w]
    assert set(big["doc_id"]).issubset(set(got["doc_id"]))


# ------------------------------------------------------------------- q282

def test_otsu_bimodal_and_flat(ray_session):
    from texrex_ray.stages.images import OtsuThreshold

    ot = OtsuThreshold()
    # perfectly bimodal: half black, half white — threshold at the dark
    # level, separability eta = 1000 (all variance is between-class)
    px = np.zeros((4, 8, 3), dtype=np.uint8)
    px[:, 4:, :] = 255
    t, eta = ot._otsu(px)
    assert t == 0          # lowest maximizing threshold: <=0 vs >0
    assert eta == 1000
    # flat image: no threshold, zero separability
    assert ot._otsu(np.full((4, 4, 3), 9, dtype=np.uint8)) == (-1, 0)
    # tri-level sanity: the split must separate the extreme mass
    px2 = np.zeros((1, 4, 3), dtype=np.uint8)
    px2[0, 1] = 10
    px2[0, 2] = 200
    px2[0, 3] = 210
    t2, eta2 = ot._otsu(px2)
    assert 30 <= t2 < 600
    assert 0 < eta2 <= 1000


def test_otsu_aggregate_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q282_otsu_threshold"](SF)
    fx = pd.read_parquet("/root/repo/tests/fixtures/oracle/otsu_fixture.parquet")
    want = {
        fmt: (len(s), int(s["otsu_thresh"].sum()),
              int(s["otsu_thresh"].min()), int(s["otsu_thresh"].max()),
              int(s["otsu_eta_milli"].sum()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_images"]), int(r["sum_thresh"]),
                   int(r["min_thresh"]), int(r["max_thresh"]),
                   int(r["sum_eta_milli"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # photographs must show a spread of thresholds
    assert any(v[3] > v[2] for v in want.values())
