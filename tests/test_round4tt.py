"""Round-4 batch TT: Haar band energy, density core census, diameter bound."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q298

def test_haar_bands_on_synthetic(ray_session):
    from texrex_ray.stages.images import HaarEnergy

    he = HaarEnergy(levels=2)
    # constant image: ALL detail bands zero, LL2 = (16*v)^2 * px/16
    v = 3 * 7  # channel-sum luminance of a (7,7,7) pixel
    px = np.full((8, 8, 3), 7, dtype=np.uint8)
    bands = dict(he.bands(px))
    assert bands["LH1"] == bands["HL1"] == bands["HH1"] == 0
    assert bands["LH2"] == bands["HL2"] == bands["HH2"] == 0
    assert bands["LL2"] == (16 * v) ** 2 * 4  # 2x2 LL2 coefficients
    # vertical stripes of width 1: all energy lands in LH1 (horizontal
    # differences), none in HL1
    px2 = np.zeros((4, 4, 3), dtype=np.uint8)
    px2[:, 0::2, :] = 255
    b2 = dict(HaarEnergy(levels=1).bands(px2))
    assert b2["LH1"] > 0 and b2["HL1"] == 0 and b2["HH1"] == 0
    # horizontal stripes: the transpose case
    b3 = dict(HaarEnergy(levels=1).bands(px2.transpose(1, 0, 2).copy()))
    assert b3["HL1"] > 0 and b3["LH1"] == 0 and b3["HH1"] == 0


def test_haar_matches_scalar_twin(ray_session):
    """Vectorized stage == fresh scalar 2x2 walk on random pixels,
    including odd dimensions (crop-to-even per level)."""
    from texrex_ray.stages.images import HaarEnergy

    he = HaarEnergy(levels=2)
    rng = np.random.default_rng(3)
    for shape in ((9, 13, 3), (8, 8, 3), (5, 4, 3)):
        px = rng.integers(0, 256, shape).astype(np.uint8)
        ll = px.astype(int).sum(axis=2).tolist()
        want = {}
        for lv in (1, 2):
            h, w = len(ll) - len(ll) % 2, len(ll[0]) - len(ll[0]) % 2
            lh = hl = hh = 0
            nxt = []
            for y in range(0, h, 2):
                row = []
                for x in range(0, w, 2):
                    a, b = ll[y][x], ll[y][x + 1]
                    c, d = ll[y + 1][x], ll[y + 1][x + 1]
                    lh += (a - b + c - d) ** 2
                    hl += (a + b - c - d) ** 2
                    hh += (a - b - c + d) ** 2
                    row.append(a + b + c + d)
                nxt.append(row)
            want[f"LH{lv}"] = lh
            want[f"HL{lv}"] = hl
            want[f"HH{lv}"] = hh
            ll = nxt
        want["LL2"] = sum(v * v for r in ll for v in r)
        assert dict(he.bands(px)) == want, shape


def test_haar_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q298_haar_energy"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/haar_fixture.parquet")
    want = {
        (f, b): (len(s), int(s["energy"].sum()), int(s["energy"].max()))
        for (f, b), s in fx.groupby(["fmt", "band"])
    }
    have = {
        (r["fmt"], r["band"]): (int(r["n_images"]), int(r["sum_energy"]),
                                int(r["max_energy"]))
        for _, r in got.iterrows()
    }
    assert have == want


# ------------------------------------------------------------------- q299

def test_density_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import DENSITY_MIN_PTS, DENSITY_RADIUS_SQ

    got = QUERIES["q299_density_core_census"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    q = np.rint(np.asarray(list(emb["embedding"]), dtype=np.float64)
                * 1000.0).astype(np.int64)
    # integer exact distances via int64 (independent of the float64
    # matmul route in the query)
    n = len(q)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        d2 = ((q - q[i]) ** 2).sum(axis=1)
        counts[i] = int((d2 <= DENSITY_RADIUS_SQ).sum()) - 1
    df = pd.DataFrame({"label": emb["label"].astype(int), "c": counts})
    want = {
        int(l): (len(s), int((s["c"] >= DENSITY_MIN_PTS).sum()),
                 int(s["c"].sum()), int(s["c"].max()))
        for l, s in df.groupby("label")
    }
    have = {
        int(r["label"]): (int(r["n_vecs"]), int(r["n_core"]),
                          int(r["sum_neighbors"]), int(r["max_neighbors"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # neighbor relation is symmetric: total sum is even
    assert int(df["c"].sum()) % 2 == 0


# ------------------------------------------------------------------- q300

def test_double_sweep_known_graphs(ray_session):
    from texrex_ray.ops.graph import double_sweep_sequential

    # path a-b-c-d: diameter 3, double sweep finds it exactly
    r = double_sweep_sequential([("a", "b"), ("b", "c"), ("c", "d")])
    assert (r["start_node"], r["ecc_start"]) == ("a", 3)
    assert r["ecc_peak"] == 3 and r["n_reached"] == 4
    # star: ecc from the center's leaf is 2
    r2 = double_sweep_sequential([("hub", x) for x in "abc"])
    assert r2["start_node"] == "a" and r2["ecc_start"] == 2
    assert r2["ecc_peak"] == 2


def test_double_sweep_bounds_exact_diameter(ray_session):
    """On random graphs the 2-sweep bound never exceeds the true
    diameter and both BFS routes agree."""
    import random
    from collections import deque

    import ray.data

    from texrex_ray.ops.graph import double_sweep, double_sweep_sequential

    random.seed(4)
    nodes = [f"n{i:02d}" for i in range(40)]
    edges = list({tuple(sorted(random.sample(nodes, 2)))
                  for _ in range(70)})
    seq = double_sweep_sequential(edges)
    got = double_sweep(ray.data.from_items(
        [{"src": a, "dst": b} for a, b in edges]))
    assert got == seq
    # exact diameter of the start component via all-pairs BFS
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def bfs(root):
        dist = {root: 0}
        q = deque([root])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        return dist

    start_comp = set(bfs(seq["start_node"]))
    diam = max(max(bfs(v).values()) for v in start_comp)
    assert seq["ecc_peak"] <= diam
    assert seq["ecc_start"] <= seq["ecc_peak"]  # sweep 2 never shrinks


def test_diameter_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q300_diameter_bound"](SF).iloc[0]
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/diameter_fixture.parquet").iloc[0]
    assert got.to_dict() == fx.to_dict()
