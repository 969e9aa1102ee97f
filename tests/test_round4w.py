"""Round-4 batch W: water-filling budget, host modularity, backoff audit."""

import re

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
EDGES = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
HOST_RE = re.compile(r"http://([^/]+)/")


def _host(s: pd.Series) -> pd.Series:
    return s.str.extract(r"http://([^/]+)/", expand=False)


# ------------------------------------------------------------------- q231

def test_waterfill_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import WF_BUDGET

    got = QUERIES["q231_waterfill_budget"](SF)
    edges = pd.read_parquet(EDGES)
    demand = _host(edges["dst"]).value_counts().sort_index()
    # serial waterline: brute-force the level (independent method)
    levels = np.arange(int(demand.max()) + 1)
    filled = np.minimum.outer(demand.to_numpy(), levels).sum(axis=0)
    level = int(levels[filled <= WF_BUDGET].max())
    fl = np.minimum(demand.to_numpy(), level)
    rem = WF_BUDGET - int(fl.sum())
    unsat = sorted(demand.index[demand.to_numpy() > level])
    bonus = set(unsat[:rem])
    want = {
        h: int(f) + (1 if h in bonus else 0)
        for h, f in zip(demand.index, fl)
    }
    have = dict(zip(got["host"], got["alloc"].astype(int)))
    assert have == want
    assert sum(have.values()) == WF_BUDGET
    # max-min fairness: no unsaturated host sits >1 below another's alloc
    unsat_allocs = [a for h, a in have.items() if a < demand[h]]
    if unsat_allocs:
        assert max(unsat_allocs) - min(unsat_allocs) <= 1


def test_waterfill_saturates_small_hosts(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q231_waterfill_budget"](SF)
    # every host is allocated at most its demand, at least 0
    assert (got["alloc"] <= got["demand"]).all()
    assert (got["alloc"] >= 0).all()
    # the smallest-demand host must be fully served before the largest
    # gets more than the waterline
    smallest = got.loc[got["demand"].idxmin()]
    assert smallest["alloc"] == smallest["demand"]


# ------------------------------------------------------------------- q232

def test_modularity_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q232_host_modularity"](SF)
    edges = pd.read_parquet(EDGES)
    hs, hd = _host(edges["src"]), _host(edges["dst"])
    m = len(edges)
    out_deg = hs.value_counts()
    in_deg = hd.value_counts()
    intra = hs[hs.eq(hd)].value_counts()
    hosts = sorted(set(hs) | set(hd))
    want = {
        h: (
            int(intra.get(h, 0)),
            int(out_deg.get(h, 0)),
            int(in_deg.get(h, 0)),
            m * int(intra.get(h, 0))
            - int(out_deg.get(h, 0)) * int(in_deg.get(h, 0)),
        )
        for h in hosts
    }
    have = {
        r["host"]: (
            int(r["e_intra"]), int(r["out_deg"]), int(r["in_deg"]),
            int(r["contrib_num"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # modularity identity: sum(out_deg) == sum(in_deg) == m
    assert got["out_deg"].sum() == m == got["in_deg"].sum()
    # the host partition of a preferential-attachment web graph with
    # mostly-internal links must have positive modularity
    assert int(got["contrib_num"].sum()) > 0


# ------------------------------------------------------------------- q233

def test_backoff_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q233_backoff_audit"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    err = ev[ev["event_type"] == "error"].copy()
    assert str(err["ts"].dtype) == "datetime64[us]"
    err["t"] = err["ts"].astype("int64")  # us, matching epoch_us
    want = {}
    for uid, sub in err.groupby("user_id"):
        sub = sub.sort_values(["t", "event_id"])
        t = sub["t"].to_numpy()
        if len(t) < 3:
            continue
        gaps = np.diff(t)
        ok = int(np.sum(gaps[1:] >= 2 * gaps[:-1]))
        n_pairs = len(gaps) - 1
        want[int(uid)] = (len(t), n_pairs, ok, ok * PPM // n_pairs)
    have = {
        int(r["user_id"]): (
            int(r["n_errors"]), int(r["n_pairs"]), int(r["n_ok"]),
            int(r["ok_ppm"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    assert len(have) > 0
