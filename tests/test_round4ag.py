"""Round-4 batch AG: TPC-H Q6/Q10/Q19 shapes."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _vol_c(df: pd.DataFrame) -> pd.Series:
    price_c = np.round(df["l_extendedprice"] * 100).astype(np.int64)
    disc_h = np.round(df["l_discount"] * 100).astype(np.int64)
    return price_c * (100 - disc_h) // 100


# ------------------------------------------------------------------- q334

def test_q6_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q6_HI, Q6_LO

    got = QUERIES["q334_forecast_revenue"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    dh = np.round(li["l_discount"] * 100).astype(np.int64)
    qc = np.round(li["l_quantity"] * 100).astype(np.int64)
    pc_ = np.round(li["l_extendedprice"] * 100).astype(np.int64)
    keep = (
        (li["l_shipdate"] >= Q6_LO) & (li["l_shipdate"] < Q6_HI)
        & (dh >= 4) & (dh <= 6) & (qc < 2400)
    )
    delta = (pc_ * dh // 100)[keep]
    assert int(got["n_items"]) == int(keep.sum())
    assert int(got["revenue_delta_c"]) == int(delta.sum())
    # the slice is strict: it never exceeds the unfiltered discount sum
    assert int(delta.sum()) <= int((pc_ * dh // 100).sum())


# ------------------------------------------------------------------- q335

def test_q10_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q10_HI, Q10_LO, Q10_TOPK

    got = QUERIES["q335_returned_items"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    o = pd.read_parquet(f"{SF}/orders.parquet")
    c = pd.read_parquet(f"{SF}/customer.parquet")
    n = pd.read_parquet(f"{SF}/nation.parquet")
    o = o[(o["o_orderdate"] >= Q10_LO) & (o["o_orderdate"] < Q10_HI)]
    j = li[li["l_returnflag"] == "R"].merge(
        o[["o_orderkey", "o_custkey"]],
        left_on="l_orderkey", right_on="o_orderkey")
    j = j.assign(vol=_vol_c(j))
    g = (
        j.groupby("o_custkey")
        .agg(n_items=("vol", "size"), lost_revenue_c=("vol", "sum"))
        .reset_index()
        .rename(columns={"o_custkey": "c_custkey"})
        .merge(c[["c_custkey", "c_nationkey"]], on="c_custkey")
        .merge(n, left_on="c_nationkey", right_on="n_nationkey")
        .rename(columns={"n_name": "nation"})
        .sort_values(["lost_revenue_c", "c_custkey"],
                     ascending=[False, True])
        .head(Q10_TOPK)
        .reset_index(drop=True)
    )[["c_custkey", "nation", "n_items", "lost_revenue_c"]]
    assert got.values.tolist() == g.values.tolist()
    assert (got["lost_revenue_c"].diff().dropna() <= 0).all()


# ------------------------------------------------------------------- q336

def test_q19_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q19_ARMS

    got = QUERIES["q336_disjunctive_revenue"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    p = pd.read_parquet(f"{SF}/part.parquet")
    j = li.merge(p, left_on="l_partkey", right_on="p_partkey")
    qc = np.round(j["l_quantity"] * 100).astype(np.int64)
    keep = pd.Series(False, index=j.index)
    for brand, slo, shi, qlo, qhi in Q19_ARMS:
        keep |= ((j["p_brand"] == brand)
                 & (j["p_size"] >= slo) & (j["p_size"] <= shi)
                 & (qc >= qlo) & (qc <= qhi))
    f = j[keep]
    assert int(got["n_items"]) == len(f)
    assert int(got["revenue_c"]) == int(_vol_c(f).sum())
    # the union counts each row once even if arms overlap
    assert int(got["n_items"]) <= len(j)
