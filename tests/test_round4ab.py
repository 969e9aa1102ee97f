"""Round-4 batch AB: TPC-H Q17/Q18/Q4 shapes."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q319

def test_q17_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q17_BRAND

    got = QUERIES["q319_small_qty_revenue"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    p = pd.read_parquet(f"{SF}/part.parquet")
    j = li.merge(p[p["p_brand"] == Q17_BRAND][["p_partkey"]],
                 left_on="l_partkey", right_on="p_partkey")
    j = j.assign(qty_c=np.round(j["l_quantity"] * 100).astype(np.int64),
                 ep_c=np.round(j["l_extendedprice"] * 100).astype(np.int64))
    st = j.groupby("l_partkey").agg(s=("qty_c", "sum"), c=("qty_c", "size"))
    j = j.join(st, on="l_partkey")
    f = j[j["qty_c"] * 5 * j["c"] < j["s"]]
    assert int(got["n_items"]) == len(f)
    assert int(got["n_parts"]) == f["l_partkey"].nunique()
    assert int(got["revenue_c"]) == int(f["ep_c"].sum())
    # the threshold is strict: qualifying lines are below-average-qty
    assert (f["qty_c"] * f["c"] < f["s"]).all()


# ------------------------------------------------------------------- q320

def test_q18_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q18_QTY_C

    got = QUERIES["q320_large_volume_orders"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    li = li.assign(q=np.round(li["l_quantity"] * 100).astype(np.int64))
    sums = li.groupby("l_orderkey")["q"].sum()
    big = sums[sums > Q18_QTY_C]
    o = pd.read_parquet(f"{SF}/orders.parquet")
    j = o[o["o_orderkey"].isin(big.index)].copy()
    j["totalprice_c"] = np.round(j["o_totalprice"] * 100).astype(np.int64)
    j["sum_qty_c"] = j["o_orderkey"].map(big).astype(np.int64)
    want = (
        j.rename(columns={"o_custkey": "c_custkey"})
        .sort_values(["totalprice_c", "o_orderkey"], ascending=[False, True])
        .head(20)[["c_custkey", "o_orderkey", "totalprice_c", "sum_qty_c"]]
        .reset_index(drop=True)
    )
    assert got.values.tolist() == want.values.tolist()
    # HAVING really filtered
    assert (got["sum_qty_c"] > Q18_QTY_C).all()


# ------------------------------------------------------------------- q321

def test_q4_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q4_HI, Q4_LATE_DAYS, Q4_LO

    got = QUERIES["q321_priority_exists"](SF)
    o = pd.read_parquet(f"{SF}/orders.parquet")
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    o = o[(o["o_orderdate"] >= Q4_LO) & (o["o_orderdate"] < Q4_HI)]
    j = li.merge(o[["o_orderkey", "o_orderdate"]],
                 left_on="l_orderkey", right_on="o_orderkey")
    late = j[
        j["l_shipdate"] > j["o_orderdate"] + pd.Timedelta(days=Q4_LATE_DAYS)
    ]["l_orderkey"].unique()
    sel = o[o["o_orderkey"].isin(set(late.tolist()))]
    want = sel.groupby("o_orderpriority").size().to_dict()
    have = {r["o_orderpriority"]: int(r["order_count"])
            for _, r in got.iterrows()}
    assert have == want
    # EXISTS counts orders once, never lineitem-multiplied
    assert sum(have.values()) == len(sel) <= len(o)
