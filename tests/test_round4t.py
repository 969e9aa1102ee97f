"""Round-4 batch T: upsert apply, edge stress, delta-bits audit."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
FIXDIR = "/root/repo/tests/fixtures/oracle"


# ------------------------------------------------------------------- q222

def test_upsert_apply_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q222_upsert_apply"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    ev = ev.assign(
        us=us, vc=np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    ).sort_values(["user_id", "us", "event_id"])
    want = {}
    for uid, sub in ev.groupby("user_id"):
        last = sub.iloc[-1]
        n_ups = int((sub["event_type"] != "error").sum())
        if last["event_type"] == "error":
            continue  # trailing delete removes the key
        want[int(uid)] = (int(last["vc"]), n_ups, int(last["us"]))
    have = {
        int(r["user_id"]): (
            int(r["value_c"]), int(r["n_upserts"]), int(r["last_us"])
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # some users must end on a delete for the test to mean anything
    assert len(have) < ev["user_id"].nunique()


# ------------------------------------------------------------------- q223

def test_edge_stress_matches_twin_with_parallel_edges(ray_session):
    from texrex_ray.ops.centrality import (
        edge_stress,
        edge_stress_sequential_twin,
    )

    rng = np.random.default_rng(17)
    src = rng.integers(0, 40, 150)
    dst = rng.integers(0, 40, 150)
    k = src != dst
    e = pd.DataFrame(
        {"src": [f"n{i}" for i in src[k]], "dst": [f"n{i}" for i in dst[k]]}
    )
    e = pd.concat([e, e.head(5)], ignore_index=True)  # force parallel edges
    a = edge_stress(e)
    a = a[a["stress"] > 0].reset_index(drop=True)
    b = edge_stress_sequential_twin(e)
    b = b[b["stress"] > 0].reset_index(drop=True)
    assert a.equals(b)


def test_edge_stress_path_graph(ray_session):
    from texrex_ray.ops.centrality import edge_stress

    e = pd.DataFrame({"src": ["a", "b", "c"], "dst": ["b", "c", "d"]})
    out = edge_stress(e).set_index(["src", "dst"])["stress"]
    # a->b carries paths a->{b,c,d}; b->c carries {a,b}->{c,d}; symmetric
    assert out[("a", "b")] == 3
    assert out[("b", "c")] == 4
    assert out[("c", "d")] == 3


def test_edge_stress_fixture_fresh(ray_session):
    from texrex_ray.ops.centrality import edge_stress

    edges = pd.read_parquet(f"{FIXDIR}/pagerank_edges.parquet")
    fix = pd.read_parquet(f"{FIXDIR}/edge_stress_sf0.01.parquet")
    got = edge_stress(edges)
    got = got[got["stress"] > 0].reset_index(drop=True)
    assert fix.sort_values(["src", "dst"]).reset_index(drop=True).equals(
        got.sort_values(["src", "dst"]).reset_index(drop=True)
    )


# ------------------------------------------------------------------- q224

def test_delta_bits_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import ENC_FRAG

    got = QUERIES["q224_delta_bits"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    ev = ev.assign(us=us, frag_id=ev["event_id"] // ENC_FRAG).sort_values(
        ["frag_id", "us", "event_id"]
    )
    want = {}
    for fid, sub in ev.groupby("frag_id"):
        u = sub["us"].to_numpy()
        if len(u) < 2:
            continue
        bits = [0 if d == 0 else int(d).bit_length() for d in np.diff(u)]
        want[int(fid)] = (
            len(bits), sum(bits), max(bits), (sum(bits) + 7) // 8
        )
    have = {
        int(r["frag_id"]): (
            int(r["n_deltas"]), int(r["sum_bits"]), int(r["max_bits"]),
            int(r["packed_bytes"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # packed size beats raw 8 B/value whenever max_bits < 64
    for n, sbits, mbits, packed in have.values():
        assert packed <= n * 8
        assert mbits <= 64
