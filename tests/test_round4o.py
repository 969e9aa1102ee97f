"""Round-4 batch O: stress centrality, harmonic closeness, hash ring."""

import hashlib

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
FIXDIR = "/root/repo/tests/fixtures/oracle"


def _random_graph(n=60, m=240, seed=11):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return pd.DataFrame(
        {"src": [f"n{j}" for j in src[keep]], "dst": [f"n{j}" for j in dst[keep]]}
    )


# ------------------------------------------------------------------- q207

def test_stress_distributed_matches_matrix_twin(ray_session):
    from texrex_ray.ops.centrality import stress_centrality, stress_matrix_twin

    edges = _random_graph()
    a = stress_centrality(edges)
    b = stress_matrix_twin(edges)
    assert a.equals(b)


def test_stress_fixture_fresh(ray_session):
    # the committed fixture must match a recomputation from the committed
    # edge list (catches edits to either side).  The distributed path is
    # used here because it is ~10x faster than the matrix twin at this
    # size; distributed==twin equality is proven on random graphs above.
    from texrex_ray.ops.centrality import stress_centrality

    edges = pd.read_parquet(f"{FIXDIR}/pagerank_edges.parquet")
    fix = pd.read_parquet(f"{FIXDIR}/stress_centrality_sf0.01.parquet")
    got = stress_centrality(edges)
    assert fix.sort_values("node").reset_index(drop=True).equals(
        got.sort_values("node").reset_index(drop=True)
    )


def test_stress_path_graph(ray_session):
    # on a directed path a->b->c->d, interior nodes carry all the paths
    from texrex_ray.ops.centrality import stress_centrality

    edges = pd.DataFrame(
        {"src": ["a", "b", "c"], "dst": ["b", "c", "d"]}
    )
    out = stress_centrality(edges).set_index("node")["stress"]
    # b is interior to a->c, a->d; c is interior to a->d, b->d
    assert out["a"] == 0 and out["d"] == 0
    assert out["b"] == 2 and out["c"] == 2


# ------------------------------------------------------------------- q208

def test_harmonic_distributed_matches_deque_twin(ray_session):
    from texrex_ray.ops.centrality import (
        harmonic_centrality,
        harmonic_sequential_twin,
    )

    edges = _random_graph(seed=13)
    a = harmonic_centrality(edges).reset_index(drop=True)
    b = harmonic_sequential_twin(edges).reset_index(drop=True)
    assert a.equals(b)


def test_harmonic_star_graph(ray_session):
    from texrex_ray.ops.centrality import PPM, harmonic_centrality

    edges = pd.DataFrame(
        {"src": ["hub"] * 3, "dst": ["s1", "s2", "s3"]}
    )
    out = harmonic_centrality(edges).set_index("node")
    assert int(out.loc["hub", "harmonic_ppm"]) == 3 * PPM
    assert int(out.loc["s1", "n_reached"]) == 0


# ------------------------------------------------------------------- q209

def test_hash_ring_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import RING_VNODES

    got = QUERIES["q209_hash_ring"](SF)
    sup = pd.read_parquet(f"{SF}/supplier.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    shards = sorted(sup["s_name"].unique())
    gone = min(shards)

    def h15(s):
        return int(hashlib.md5(s.encode()).hexdigest()[:15], 16)

    def assign_all(names):
        ring = sorted(
            (h15(f"{s}#{i}"), s) for s in names for i in range(RING_VNODES)
        )
        pos = [p for p, _ in ring]
        import bisect

        counts = {s: 0 for s in names}
        for c in cust["c_name"]:
            j = bisect.bisect_left(pos, h15(c)) % len(ring)
            counts[ring[j][1]] += 1
        return counts

    c1 = assign_all(shards)
    c2 = assign_all([s for s in shards if s != gone])
    have = {
        r["shard"]: (int(r["n_keys"]), int(r["n_keys_after"]))
        for _, r in got.iterrows()
    }
    assert have == {
        s: (c1[s], c2.get(s, 0)) for s in shards
    }
    # consistent-hashing property: removal only reassigns the departed
    # shard's keys — every surviving shard's count is non-decreasing
    for s in shards:
        if s != gone:
            assert have[s][1] >= have[s][0]
    assert have[gone][1] == 0
    assert sum(v[0] for v in have.values()) == len(cust)
    assert sum(v[1] for v in have.values()) == len(cust)
