"""Round-4 batch II: blur audit, k-truss ladder, Lloyd k-means."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q265

def _lap_var_milli(px: np.ndarray) -> int:
    # independent route: np.roll shifts over a padded copy (the query
    # stage slices interior views; the fixture generator loops pixels)
    lum = px.astype(np.int64).sum(axis=2)
    h, w = lum.shape
    if h < 3 or w < 3:
        return -1
    lap = (
        4 * lum
        - np.roll(lum, 1, axis=0)
        - np.roll(lum, -1, axis=0)
        - np.roll(lum, 1, axis=1)
        - np.roll(lum, -1, axis=1)
    )[1:-1, 1:-1]
    n = lap.size
    s = int(lap.sum())
    s2 = int((lap.astype(object) ** 2).sum())
    return (n * s2 - s * s) * 1000 // (n * n)


def test_blur_audit_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import BLUR_MILLI
    from texrex_ray.sources.images import decode_image

    got = QUERIES["q265_blur_audit"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    rows = []
    for _, r in imgs.iterrows():
        rows.append((r["fmt"], _lap_var_milli(decode_image(bytes(r["bytes"])))))
    df = pd.DataFrame(rows, columns=["fmt", "v"])
    want = {}
    for fmt, sub in df.groupby("fmt"):
        v = sub["v"]
        want[fmt] = (
            len(v), int((v < BLUR_MILLI).sum()), int(v.min()), int(v.max()),
            int(v.sum()),
        )
    have = {
        r["fmt"]: (
            int(r["n_images"]), int(r["n_blurry"]), int(r["min_var_milli"]),
            int(r["max_var_milli"]), int(r["sum_var_milli"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # the threshold must split the corpus: some blurry, not all
    n_img = sum(v[0] for v in want.values())
    n_blur = sum(v[1] for v in want.values())
    assert 0 < n_blur < n_img


# ------------------------------------------------------------------- q266

def test_ktruss_two_cliques_bridge():
    from texrex_ray.ops.graph import ktruss_sequential

    k5a = [(f"a{i}", f"a{j}") for i in range(5) for j in range(i + 1, 5)]
    k4b = [(f"b{i}", f"b{j}") for i in range(4) for j in range(i + 1, 4)]
    bridge = [("a0", "b0")]
    sizes = ktruss_sequential(k5a + k4b + bridge)
    # K5 edges survive to k=5 (support 3), K4 to k=4, the bridge dies at k=3
    assert sizes == {3: 16, 4: 16, 5: 10}


def test_ktruss_distributed_matches_sequential(ray_session):
    import ray.data

    from texrex_ray.ops.graph import ktruss_sequential, ktruss_sizes

    rng = np.random.default_rng(11)
    n = 60
    edges = [
        (f"v{a}", f"v{b}")
        for a, b in rng.integers(0, n, size=(500, 2))
    ]
    # include duplicates + reversed + self loops to exercise canon
    edges += [(b, a) for a, b in edges[:40]] + [("v1", "v1")]
    df = pd.DataFrame(edges, columns=["src", "dst"])
    got = ktruss_sizes(ray.data.from_pandas(df), expected_edges=len(df))
    want = ktruss_sequential(edges)
    assert {int(r["k"]): int(r["n_edges"]) for _, r in got.iterrows()} == want
    # ladder is strictly shrinking
    sizes = got["n_edges"].tolist()
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


# ------------------------------------------------------------------- q267

def test_kmeans_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import KM_ITERS, KM_K

    got = QUERIES["q267_kmeans"](SF)
    emb = (
        pd.read_parquet(f"{SF}/embeddings.parquet")
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    q = np.floor(
        np.stack([np.asarray(v, np.float64) for v in emb["embedding"]]) * 1e3
        + 0.5
    ).astype(np.int64)
    cents = q[:KM_K].copy()

    def assign(qm, c):
        d2 = ((qm[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        return a, d2[np.arange(len(qm)), a]

    for _ in range(KM_ITERS):
        a, _ = assign(q, cents)
        new = cents.copy()
        for j in range(KM_K):
            m = a == j
            if m.any():
                new[j] = q[m].sum(axis=0) // int(m.sum())
        cents = new
    a, d2 = assign(q, cents)
    want = {
        j: (int((a == j).sum()), int(d2[a == j].sum())) for j in range(KM_K)
        if (a == j).any()
    }
    have = {
        int(r["cluster"]): (int(r["n_members"]), int(r["inertia"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # all vectors assigned, every cluster nonempty at this scale
    assert sum(v[0] for v in have.values()) == len(emb)
    assert len(have) == KM_K
