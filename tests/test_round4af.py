"""Round-4 batch AF: 1-D k-means, shuffle adjacency audit, DRR."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q331

def test_kmeans_query_matches_scalar_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import KMEANS_ITERS, KMEANS_K

    got = QUERIES["q331_price_kmeans"](SF)
    vals = [
        int(round(float(x) * 100))
        for x in pd.read_parquet(f"{SF}/orders.parquet",
                                 columns=["o_totalprice"])["o_totalprice"]
    ]
    lo, hi = min(vals), max(vals)
    cent = [lo + (hi - lo) * (2 * i + 1) // (2 * KMEANS_K)
            for i in range(KMEANS_K)]
    for _ in range(KMEANS_ITERS):
        sums = [0] * KMEANS_K
        cnts = [0] * KMEANS_K
        for v in vals:
            best = min(range(KMEANS_K), key=lambda i: (abs(v - cent[i]), i))
            sums[best] += v
            cnts[best] += 1
        new = [sums[i] // cnts[i] if cnts[i] else cent[i]
               for i in range(KMEANS_K)]
        if new == cent:
            break
        cent = new
    want = {}
    for v in vals:
        best = min(range(KMEANS_K), key=lambda i: (abs(v - cent[i]), i))
        d = want.setdefault(best, [cent[best], 0, 0])
        d[1] += 1
        d[2] += v
    have = {
        int(r["bucket"]): [int(r["centroid_c"]), int(r["n"]),
                           int(r["sum_c"])]
        for _, r in got.iterrows()
    }
    assert have == want
    # Lloyd invariants: centroids strictly increasing (1-D), counts
    # conserve the corpus
    cs = got["centroid_c"].tolist()
    assert cs == sorted(cs)
    assert int(got["n"].sum()) == len(vals)


# ------------------------------------------------------------------- q332

def test_shuffle_adjacency_matches_sql_order_twin(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import SHUFFLE_AUDIT_SALT

    got = QUERIES["q332_shuffle_adjacency"](SF).iloc[0]
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "source"])
    keys = md5_lower64(
        [f"{int(i)}:{SHUFFLE_AUDIT_SALT}" for i in docs["doc_id"]]
    )
    order = np.lexsort((docs["doc_id"].to_numpy(), keys))
    src = docs["source"].to_numpy()[order]
    same = int((src[1:] == src[:-1]).sum())
    assert int(got["n_rows"]) == len(docs)
    assert int(got["n_adjacent_same"]) == same
    # well-mixed: observed clumping within 3x the random expectation
    n_s = docs["source"].value_counts()
    expected = int((n_s * (n_s - 1)).sum()) / len(docs)
    assert same <= 3 * expected + 5


# ------------------------------------------------------------------- q333

def test_drr_unit_schedule(ray_session):
    """Hand-checkable DRR: quantum 1000, two flows; the big-item flow
    must bank deficit across rounds before serving."""
    from texrex_ray.pipelines.queries.census_b import _drr_run

    rows = _drr_run({"a": [500, 500, 500], "b": [2500]})
    d = {r[0]: r for r in rows}
    # flow a: round 1 serves 500+500 (deficit 0 after drain-reset at
    # round 2 serving the last 500)
    assert d["a"][1] == 3 and d["a"][3] == 0
    # flow b: needs 3 rounds of quantum to afford 2500, then served
    assert d["b"][1] == 1 and d["b"][3] == 0
    # fairness: served VALUE within one max-item of each other during
    # contention — both drained here, totals equal their queue sums
    assert d["a"][2] == 1500 and d["b"][2] == 2500


def test_drr_query_matches_deque_twin(ray_session):
    from collections import deque

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import DRR_QUANTUM_C, DRR_ROUNDS

    got = QUERIES["q333_deficit_round_robin"](SF)
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["ts", "event_id", "event_type", "value"],
    ).sort_values(["ts", "event_id"])
    queues = {
        et: deque(max(int(round(float(v) * 100)), 1) for v in sub["value"])
        for et, sub in ev.groupby("event_type")
    }
    types = sorted(queues)
    totals = {t: len(queues[t]) for t in types}
    deficit = {t: 0 for t in types}
    served = {t: 0 for t in types}
    value = {t: 0 for t in types}
    for _ in range(DRR_ROUNDS):
        for t in types:
            q = queues[t]
            if not q:
                deficit[t] = 0
                continue
            deficit[t] += DRR_QUANTUM_C
            while q and q[0] <= deficit[t]:
                s = q.popleft()
                deficit[t] -= s
                value[t] += s
                served[t] += 1
            if not q:
                deficit[t] = 0
    want = {
        t: (served[t], value[t], totals[t] - served[t], deficit[t])
        for t in types
    }
    have = {
        r["event_type"]: (int(r["n_served"]), int(r["served_value_c"]),
                          int(r["backlog"]), int(r["deficit_end"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # DRR guarantee (Shreedhar-Varghese): a backlogged flow's served
    # value after R rounds lies in [R*Q - max_item, R*Q] — the deficit
    # counter never exceeds one max-size item
    sizes = {
        et: max(max(int(round(float(v) * 100)), 1) for v in sub["value"])
        for et, sub in ev.groupby("event_type")
    }
    budget = DRR_ROUNDS * DRR_QUANTUM_C
    for t, v in want.items():
        if v[2] > 0:  # still backlogged
            assert budget - sizes[t] <= v[1] <= budget
            assert v[3] < sizes[t]  # deficit bounded by max item
