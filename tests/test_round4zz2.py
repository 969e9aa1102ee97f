"""Round-4 batch ZZ2: TPC-H Q5/Q3/Q14 shapes."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _vol_c(df: pd.DataFrame) -> pd.Series:
    price_c = np.round(df["l_extendedprice"] * 100).astype(np.int64)
    disc_h = np.round(df["l_discount"] * 100).astype(np.int64)
    return price_c * (100 - disc_h) // 100


# ------------------------------------------------------------------- q316

def test_q5_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q5_DATE_HI, Q5_DATE_LO, Q5_REGION

    got = QUERIES["q316_local_supplier_volume"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    o = pd.read_parquet(f"{SF}/orders.parquet")
    c = pd.read_parquet(f"{SF}/customer.parquet")
    s = pd.read_parquet(f"{SF}/supplier.parquet")
    n = pd.read_parquet(f"{SF}/nation.parquet")
    r = pd.read_parquet(f"{SF}/region.parquet")
    o = o[(o["o_orderdate"] >= Q5_DATE_LO) & (o["o_orderdate"] < Q5_DATE_HI)]
    j = (
        li.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        .merge(c, left_on="o_custkey", right_on="c_custkey")
        .merge(s, left_on="l_suppkey", right_on="s_suppkey")
        .merge(n, left_on="c_nationkey", right_on="n_nationkey")
        .merge(r, left_on="n_regionkey", right_on="r_regionkey")
    )
    j = j[(j["c_nationkey"] == j["s_nationkey"]) & (j["r_name"] == Q5_REGION)]
    j = j.assign(vol=_vol_c(j))
    want = (
        j.groupby("n_name")
        .agg(n_items=("vol", "size"), revenue_c=("vol", "sum"))
        .reset_index()
        .rename(columns={"n_name": "nation"})
        .sort_values(["revenue_c", "nation"], ascending=[False, True])
        .reset_index(drop=True)
    )
    assert got[["nation", "n_items", "revenue_c"]].values.tolist() == \
        want[["nation", "n_items", "revenue_c"]].values.tolist()
    # cyclic predicate really bites: same-nation pairs are a strict
    # subset of all region pairs
    assert len(got) <= 25 and (got["n_items"] > 0).all()


# ------------------------------------------------------------------- q317

def test_q3_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q3_DATE, Q3_TOPK

    got = QUERIES["q317_shipping_priority"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    o = pd.read_parquet(f"{SF}/orders.parquet")
    o = o[o["o_orderdate"] < Q3_DATE]
    li = li[li["l_shipdate"] > Q3_DATE]
    j = li.merge(o[["o_orderkey"]], left_on="l_orderkey",
                 right_on="o_orderkey")
    j = j.assign(vol=_vol_c(j))
    want = (
        j.groupby("l_orderkey")
        .agg(n_items=("vol", "size"), revenue_c=("vol", "sum"))
        .reset_index()
        .sort_values(["revenue_c", "l_orderkey"], ascending=[False, True])
        .head(Q3_TOPK)
        .reset_index(drop=True)
    )
    assert got.values.tolist() == want.values.tolist()
    # top-k is sorted strictly by revenue then key
    rv = got["revenue_c"].tolist()
    assert rv == sorted(rv, reverse=True)


# ------------------------------------------------------------------- q318

def test_q14_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q14_HI, Q14_LO

    got = QUERIES["q318_promo_share"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    p = pd.read_parquet(f"{SF}/part.parquet")
    li = li[(li["l_shipdate"] >= Q14_LO) & (li["l_shipdate"] < Q14_HI)]
    j = li.merge(p, left_on="l_partkey", right_on="p_partkey")
    j = j.assign(vol=_vol_c(j))
    promo = int(j.loc[j["p_type"] == "PROMO", "vol"].sum())
    total = int(j["vol"].sum())
    assert int(got["n_items"]) == len(j)
    assert int(got["promo_c"]) == promo
    assert int(got["total_c"]) == total
    assert int(got["promo_ppm"]) == promo * 1_000_000 // total
    # promo share is a proper fraction
    assert 0 <= int(got["promo_ppm"]) <= 1_000_000
