"""Round-4 session-4 batch C: BWT runs, L1 distance transform, Q8 share."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q343

def test_bwt_runs_matches_rotation_twin(ray_session):
    from texrex_ray.functions.complexity import bwt_runs_rotations
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import _BWT_PREFIX

    got = QUERIES["q343_bwt_runs"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["source", "text"])
    rows = []
    for src, sub in docs.groupby("source"):
        n_c = n_r = 0
        for t in sub["text"]:
            c, r = bwt_runs_rotations(str(t)[:_BWT_PREFIX])
            n_c += c
            n_r += r
        rows.append((src, len(sub), n_c, n_r, n_r * 1_000_000 // n_c))
    want = pd.DataFrame(
        rows,
        columns=["source", "n_docs", "sum_chars", "sum_runs", "runs_ppm"],
    ).astype({c: "int64" for c in
              ("n_docs", "sum_chars", "sum_runs", "runs_ppm")})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # natural text compresses: BWT runs well under one per character
    assert (want["runs_ppm"] < 900_000).all()


def test_bwt_prefix_doubling_equals_rotations_hard_cases():
    from texrex_ray.functions.complexity import bwt_runs, bwt_runs_rotations

    for s in ["", "a", "aa", "ab" * 50, "banana", "mississippi",
              "x\x00y\x00", "abcab" * 7, "zyxwv" * 3 + "zyx"]:
        assert bwt_runs(s) == bwt_runs_rotations(s), repr(s)


# ------------------------------------------------------------------- q344

def test_distance_transform_stage_matches_bfs(ray_session):
    from texrex_ray.stages.images import DistanceTransform

    rng = np.random.default_rng(7)
    stage = DistanceTransform.__new__(DistanceTransform)
    stage.thresh = 383
    for _ in range(6):
        h, w = rng.integers(3, 24, 2)
        px = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        n_fg, sum_dt, max_dt = stage._dt(px)
        lum = px.astype(np.int64).sum(axis=2)
        fg = lum >= 383
        if not fg.any():
            assert (n_fg, sum_dt, max_dt) == (0, 0, -1)
            continue
        ys, xs = np.nonzero(fg)
        yy, xx = np.mgrid[0:h, 0:w]
        # brute-force nearest-foreground L1 distance
        d = np.min(
            np.abs(yy[..., None] - ys) + np.abs(xx[..., None] - xs), axis=-1
        )
        assert n_fg == int(fg.sum())
        assert sum_dt == int(d.sum())
        assert max_dt == int(d.max())


def test_distance_transform_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q344_distance_transform"](SF)
    assert list(got.columns) == ["fmt", "n_images", "n_fg", "sum_dt",
                                 "max_dt"]
    assert set(got["fmt"]) == {"png", "jpeg", "webp"}
    assert int(got["n_images"].sum()) == 300
    assert (got["n_fg"] > 0).all()
    assert (got["max_dt"] >= 0).all()


# ------------------------------------------------------------------- q345

def test_market_share_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q345_market_share"](SF)
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    nat = pd.read_parquet(f"{SF}/nation.parquet")
    reg = pd.read_parquet(f"{SF}/region.parquet")
    sup = pd.read_parquet(f"{SF}/supplier.parquet")
    part = pd.read_parquet(f"{SF}/part.parquet")
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    li = pd.read_parquet(f"{SF}/lineitem.parquet")

    am = reg.loc[reg["r_name"] == "AMERICA", "r_regionkey"]
    am_nat = nat.loc[nat["n_regionkey"].isin(am), "n_nationkey"]
    am_cust = cust.loc[cust["c_nationkey"].isin(am_nat), "c_custkey"]
    ko = orders[orders["o_custkey"].isin(am_cust)].copy()
    ko["o_year"] = ko["o_orderdate"].dt.year
    n3 = nat.loc[nat["n_name"] == "NATION_3", "n_nationkey"].iloc[0]
    n3s = set(sup.loc[sup["s_nationkey"] == n3, "s_suppkey"])
    std = set(part.loc[part["p_type"] == "STANDARD", "p_partkey"])

    m = li.merge(ko[["o_orderkey", "o_year"]], left_on="l_orderkey",
                 right_on="o_orderkey")
    m = m[m["l_partkey"].isin(std)]
    vol = (
        np.round(m["l_extendedprice"] * 100).astype(np.int64)
        * (100 - np.round(m["l_discount"] * 100).astype(np.int64)) // 100
    )
    m = m.assign(total_vol_c=vol,
                 nation_vol_c=np.where(m["l_suppkey"].isin(n3s), vol, 0))
    want = (
        m.groupby("o_year", as_index=False)[["nation_vol_c", "total_vol_c"]]
        .sum()
        .sort_values("o_year")
        .reset_index(drop=True)
    )
    want["share_ppm"] = (
        want["nation_vol_c"] * 1_000_000 // want["total_vol_c"]
    )
    want = want.astype({c: "int64" for c in want.columns})
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want[["o_year", "nation_vol_c", "total_vol_c", "share_ppm"]],
    )
