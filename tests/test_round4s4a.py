"""Round-4 session-4 batch A: Boruvka MSF, AMS F2 audit, Q9 profit."""

import hashlib

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q337

def test_boruvka_msf_matches_kruskal(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q337_boruvka_msf"](SF).iloc[0]
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_extendedprice"],
    )
    li["w_c"] = np.round(li["l_extendedprice"] * 100).astype(np.int64)
    li["dst"] = li["l_partkey"] + 1_000_000
    edges = (
        li.groupby(["l_suppkey", "dst"], as_index=False)["w_c"]
        .min()
        .sort_values(["w_c", "l_suppkey", "dst"])
    )
    nodes = sorted(set(edges["l_suppkey"]) | set(edges["dst"]))
    pos = {v: i for i, v in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    w_total = n_mst = 0
    for s, d, w in edges[["l_suppkey", "dst", "w_c"]].itertuples(index=False):
        ra, rb = find(pos[s]), find(pos[d])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            w_total += int(w)
            n_mst += 1
    n_comp = len({find(i) for i in range(len(nodes))})
    assert int(got["n_nodes"]) == len(nodes)
    assert int(got["n_edges"]) == len(edges)
    assert int(got["n_components"]) == n_comp
    assert int(got["n_mst_edges"]) == n_mst == len(nodes) - n_comp
    assert int(got["mst_weight_c"]) == w_total


# ------------------------------------------------------------------- q338

def test_ams_f2_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import _AMS_J

    got = QUERIES["q338_ams_f2"](SF).iloc[0]
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    cnt = ev["user_id"].value_counts()
    exact = int((cnt.astype(object) ** 2).sum())
    ests = []
    for j in range(_AMS_J):
        s = 0
        for u, c in cnt.items():
            h = int.from_bytes(
                hashlib.md5(f"{int(u)}:{j}".encode()).digest()[8:], "little"
            )
            s += int(c) if h % 2 == 0 else -int(c)
        ests.append(s * s)
    est = sorted(ests)[(_AMS_J - 1) // 2]
    assert int(got["exact_f2"]) == exact
    assert int(got["est_f2"]) == est
    assert int(got["rel_err_bp"]) == abs(est - exact) * 10000 // exact
    # the median-of-17 estimator should land within ~2x of exact F2
    assert got["rel_err_bp"] < 20_000


# ------------------------------------------------------------------- q339

def test_nation_profit_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q339_nation_profit"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    part = pd.read_parquet(f"{SF}/part.parquet")
    sup = pd.read_parquet(f"{SF}/supplier.parquet")
    nat = pd.read_parquet(f"{SF}/nation.parquet")
    m = (
        li.merge(part[part["p_name"].str.contains("red")], left_on="l_partkey",
                 right_on="p_partkey")
        .merge(sup, left_on="l_suppkey", right_on="s_suppkey")
        .merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    )
    price_c = np.round(m["l_extendedprice"] * 100).astype(np.int64)
    disc_h = np.round(m["l_discount"] * 100).astype(np.int64)
    qty_c = np.round(m["l_quantity"] * 100).astype(np.int64)
    retail_c = np.round(m["p_retailprice"] * 100).astype(np.int64)
    m["profit_c"] = (
        price_c * (100 - disc_h) // 100 - retail_c * qty_c // 100
    )
    m["o_year"] = m["l_shipdate"].dt.year.astype(np.int64)
    want = (
        m.groupby(["n_name", "o_year"], as_index=False)["profit_c"]
        .sum()
        .sort_values(["n_name", "o_year"], ascending=[True, False])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want[["n_name", "o_year", "profit_c"]].astype(
            {"o_year": "int64", "profit_c": "int64"}
        ),
    )
