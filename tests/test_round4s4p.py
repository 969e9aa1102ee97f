"""Round-4 session-4 batch P: tile-hash dups, densest subgraph, V-optimal."""

from fractions import Fraction

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q382

def test_tile_hashes_shift_sensitivity():
    from texrex_ray.pipelines.queries.census_c import image_tile_hashes

    rng = np.random.default_rng(4)
    px = rng.integers(0, 256, (32, 48, 3)).astype(np.uint8)
    h1 = image_tile_hashes(px)
    assert len(h1) == 2 * 3
    # identical images share all tiles; a one-tile edit changes one
    px2 = px.copy()
    px2[0, 0, 0] ^= 1
    h2 = image_tile_hashes(px2)
    assert (h1 != h2).sum() == 1
    tiny = np.zeros((8, 8, 3), np.uint8)
    assert len(image_tile_hashes(tiny)) == 0


def test_tile_hash_dups_query(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q382_tile_hash_dups"](SF).iloc[0]
    # exact-dup clusters exist in the fixture: voting must find pairs
    assert int(got["n_dup_pairs"]) > 0
    assert int(got["n_candidate_pairs"]) >= int(got["n_dup_pairs"])
    assert int(got["n_tiles"]) > int(got["n_images"])


# ------------------------------------------------------------------- q383

def test_charikar_peel_small_graph():
    from texrex_ray.pipelines.queries.census_c import charikar_peel

    # K4 plus a pendant: densest is the K4 (6/4 = 1.5)
    adj = {1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}, 4: {1, 2, 3, 5},
           5: {4}}
    bn, be, dens = charikar_peel(adj)
    assert (bn, be) == (4, 6)
    assert dens == 6 * 1_000_000 // 4


def test_densest_matches_scan_twin(ray_session):
    from collections import defaultdict

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q383_densest_subgraph"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])
    edges = {(int(s), int(p) + 1_000_000)
             for s, p in zip(li["l_suppkey"], li["l_partkey"])}
    adj = defaultdict(set)
    for s, p in edges:
        adj[s].add(p)
        adj[p].add(s)
    alive = dict(adj)
    deg = {v: len(ns) for v, ns in alive.items()}
    m = len(edges)
    best = (len(alive), m, m * 1_000_000 // len(alive))
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        for u in alive[v]:
            if u in alive and u != v:
                deg[u] -= 1
        m -= deg[v]
        del alive[v], deg[v]
        if alive:
            dens = m * 1_000_000 // len(alive)
            if dens > best[2]:
                best = (len(alive), m, dens)
    assert int(got["n_nodes"]) == len(adj)
    assert int(got["n_edges"]) == len(edges)
    assert (int(got["best_nodes"]), int(got["best_edges"]),
            int(got["best_density_ppm"])) == best


# ------------------------------------------------------------------- q384

def test_voptimal_dp_exactness():
    from texrex_ray.pipelines.queries.census_c import voptimal_dp

    counts = np.array([10, 0, 0, 10, 10, 0, 0, 10], np.int64)
    vals = np.arange(8, dtype=np.int64)
    sse, bounds = voptimal_dp(counts, vals, 2)

    def seg(i, j):
        w = counts[i:j]
        x = vals[i:j]
        n = int(w.sum())
        if n == 0:
            return Fraction(0)
        s = int((w * x).sum())
        s2 = int((w * x * x).sum())
        return Fraction(s2) - Fraction(s * s, n)

    brute = min(seg(0, m) + seg(m, 8) for m in range(1, 8))
    assert sse == brute
    assert bounds[-1] == 8
    # k = number of nonzero groups -> zero SSE
    sse4, _ = voptimal_dp(counts, vals, 4)
    assert sse4 == 0


def test_voptimal_query_matches_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _VOPT_BASE, _VOPT_K, voptimal_dp

    got = QUERIES["q384_voptimal_hist"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_extendedprice"])
    v = np.round(li["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    bins = (v * _VOPT_BASE // 10_300_000).clip(0, _VOPT_BASE - 1)
    base = np.bincount(bins, minlength=_VOPT_BASE).astype(np.int64)
    sse, bounds = voptimal_dp(base, np.arange(_VOPT_BASE, dtype=np.int64),
                              _VOPT_K)
    assert int(got["n_rows"]) == len(v)
    assert int(got["sse_num_scaled"]) == int(sse * 1000)
    assert int(got["first_boundary"]) == bounds[0]
    assert int(got["last_boundary"]) == bounds[-2]
