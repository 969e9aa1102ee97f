"""Round-4 batch DD: nation flows, crawl action mix, segment lift."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
VISITS = "/root/repo/tests/fixtures/oracle/crawl_visits_sf0.01.parquet"


# ------------------------------------------------------------------- q252

def test_nation_flows_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import FLOW_TOPK

    got = QUERIES["q252_nation_flows"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    supp = pd.read_parquet(f"{SF}/supplier.parquet")
    nat = pd.read_parquet(f"{SF}/nation.parquet")
    j = (
        li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(
            nat.rename(columns={"n_name": "cust_nation"}),
            left_on="c_nationkey", right_on="n_nationkey",
        )
        .merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        .merge(
            nat.rename(columns={"n_name": "supp_nation"}),
            left_on="s_nationkey", right_on="n_nationkey",
        )
    )
    j = j[j["cust_nation"] != j["supp_nation"]].copy()
    price_c = np.round(j["l_extendedprice"] * 100).astype(np.int64)
    disc_h = np.round(j["l_discount"] * 100).astype(np.int64)
    j["vol_c"] = price_c * (100 - disc_h) // 100
    agg = (
        j.groupby(["cust_nation", "supp_nation"])
        .agg(n_items=("vol_c", "size"), volume_c=("vol_c", "sum"))
        .reset_index()
        .sort_values(
            ["volume_c", "cust_nation", "supp_nation"],
            ascending=[False, True, True],
        )
        .head(FLOW_TOPK)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_items": "int64", "volume_c": "int64"}),
        agg.astype({"n_items": "int64", "volume_c": "int64"}),
    )
    # the flows exclude intra-nation lanes
    assert (got["cust_nation"] != got["supp_nation"]).all()


# ------------------------------------------------------------------- q253

def test_crawl_action_mix_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q253_crawl_action_mix"](SF)
    v = pd.read_parquet(VISITS)
    hi = int(v["seq"].max()) + 1
    v["decile"] = v["seq"] * 10 // hi
    want = {}
    for d, sub in v.groupby("decile"):
        want[int(d)] = (
            len(sub),
            int((sub["action"] == "step").sum()),
            int((sub["action"] == "randomjump").sum()),
            int((sub["action"] == "seed").sum()),
        )
    have = {
        int(r["decile"]): (
            int(r["n_visits"]), int(r["n_step"]), int(r["n_jump"]),
            int(r["n_seed"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # every visit is exactly one action
    for n, s, j, sd in have.values():
        assert n == s + j + sd
    # the seed lands in the first decile
    assert have[0][3] >= 1


# ------------------------------------------------------------------- q254

def test_segment_priority_lift_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q254_segment_priority_lift"](SF)
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    j = orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
    n = len(j)
    cell = (
        j.groupby(["c_mktsegment", "o_orderpriority"])
        .size()
        .reset_index(name="n_obs")
    )
    seg_tot = cell.groupby("c_mktsegment")["n_obs"].transform("sum")
    pri_tot = cell.groupby("o_orderpriority")["n_obs"].transform("sum")
    cell["lift_ppm"] = [
        int(o) * n * PPM // (int(a) * int(b))
        for o, a, b in zip(cell["n_obs"], seg_tot, pri_tot)
    ]
    want = {
        (r["c_mktsegment"], r["o_orderpriority"]): (
            int(r["n_obs"]), int(r["lift_ppm"])
        )
        for _, r in cell.iterrows()
    }
    have = {
        (r["seg"], r["prio"]): (int(r["n_obs"]), int(r["lift_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # cells partition all joined orders
    assert sum(v[0] for v in have.values()) == n
