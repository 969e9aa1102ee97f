"""Round-4 session-4 batch B: Johnson flow shop, delta-stepping, Q16."""

import heapq

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _jobs():
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderkey", "o_totalprice"])
    k = o["o_orderkey"].to_numpy(np.int64)
    p1 = np.round(o["o_totalprice"].to_numpy() * 100).astype(np.int64) % 86400 + 1
    p2 = (k * 37 + 11) % 86400 + 1
    return k, p1, p2


def _makespan(p1: np.ndarray, p2: np.ndarray) -> int:
    """Serial machine-2 recurrence — the independent twin."""
    m1 = 0
    m2 = 0
    for a, b in zip(p1, p2):
        m1 += int(a)
        m2 = max(m2, m1) + int(b)
    return m2


# ------------------------------------------------------------------- q340

def test_johnson_flowshop_matches_recurrence(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q340_johnson_flowshop"](SF).iloc[0]
    k, p1, p2 = _jobs()
    # serial Johnson order: group A (p1<p2) asc p1, group B desc p2
    order = sorted(
        range(len(k)),
        key=lambda i: (
            0 if p1[i] < p2[i] else 1,
            p1[i] if p1[i] < p2[i] else -p2[i],
            k[i],
        ),
    )
    fifo = np.argsort(k, kind="stable")
    ms_j = _makespan(p1[order], p2[order])
    ms_f = _makespan(p1[fifo], p2[fifo])
    assert int(got["n_jobs"]) == len(k)
    assert int(got["total_p1"]) == int(p1.sum())
    assert int(got["total_p2"]) == int(p2.sum())
    assert int(got["makespan_johnson"]) == ms_j
    assert int(got["makespan_fifo"]) == ms_f
    # Johnson's rule is optimal: never worse than FIFO, and both are
    # bounded below by max(total_p1 + last p2, total_p2 + first p1)
    assert ms_j <= ms_f
    assert ms_j >= int(p1.sum())
    assert ms_j >= int(p2.sum())


# ------------------------------------------------------------------- q341

def test_delta_stepping_matches_dijkstra(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q341_delta_stepping"](SF).iloc[0]
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_extendedprice"],
    )
    li["w_c"] = np.round(li["l_extendedprice"] * 100).astype(np.int64)
    li["dst"] = li["l_partkey"] + 1_000_000
    e = li.groupby(["l_suppkey", "dst"], as_index=False)["w_c"].min()
    adj: dict[int, list[tuple[int, int]]] = {}
    for s, d, w in e[["l_suppkey", "dst", "w_c"]].itertuples(index=False):
        adj.setdefault(int(s), []).append((int(d), int(w)))
        adj.setdefault(int(d), []).append((int(s), int(w)))
    src = min(adj)
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist.get(v, 1 << 62):
            continue
        for u, w in adj[v]:
            nd = dv + w
            if nd < dist.get(u, 1 << 62):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    assert int(got["n_nodes"]) == len(adj)
    assert int(got["n_reached"]) == len(dist)
    assert int(got["sum_dist_c"]) == sum(dist.values())
    assert int(got["max_dist_c"]) == max(dist.values())


# ------------------------------------------------------------------- q342

def test_supplier_census_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import _Q16_SIZES

    got = QUERIES["q342_supplier_census"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey"])
    part = pd.read_parquet(f"{SF}/part.parquet")
    sup = pd.read_parquet(f"{SF}/supplier.parquet")
    excl = set(sup.loc[sup["s_acctbal"] < 0, "s_suppkey"])
    m = li[~li["l_suppkey"].isin(excl)].merge(
        part, left_on="l_partkey", right_on="p_partkey"
    )
    m = m[
        (m["p_brand"] != "Brand#2")
        & (m["p_type"] != "PROMO")
        & m["p_size"].isin(_Q16_SIZES)
    ]
    want = (
        m.drop_duplicates(["p_brand", "p_type", "p_size", "l_suppkey"])
        .groupby(["p_brand", "p_type", "p_size"], as_index=False)
        .size()
        .rename(columns={"size": "supplier_cnt"})
        .sort_values(["supplier_cnt", "p_brand", "p_type", "p_size"],
                     ascending=[False, True, True, True])
        .head(25)
        .reset_index(drop=True)
        .astype({"p_size": "int64", "supplier_cnt": "int64"})
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
