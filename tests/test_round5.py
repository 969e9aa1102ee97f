"""Round-5 scale fallbacks: butterfly wedge-shuffle plan (q348's page-
scale path) and its equivalence to the co-occurrence-matrix plan."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from texrex_ray.ops.graph import butterfly_fold


def _rand_bipartite(n_left: int, n_right: int, n_edges: int, seed: int,
                    hot_left_frac: float = 0.0) -> pd.DataFrame:
    """Distinct random (s, p) edges; optionally concentrate edges on a
    few hot RIGHT nodes to exercise salting."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n_left, n_edges)
    if hot_left_frac > 0:
        # route a fraction of edges to 2 hot parts
        hot = rng.random(n_edges) < hot_left_frac
        p = rng.integers(0, n_right, n_edges)
        p[hot] = rng.integers(0, 2, hot.sum())
    else:
        p = rng.integers(0, n_right, n_edges)
    return (
        pd.DataFrame({"s": s.astype(np.int64), "p": p.astype(np.int64)})
        .drop_duplicates()
        .reset_index(drop=True)
    )


def _local_truth(e: pd.DataFrame) -> tuple[int, int]:
    """Quadratic self-join truth — independent of either distributed plan."""
    mm = e.merge(e, on="p")
    mm = mm[mm["s_x"] < mm["s_y"]]
    m = mm.groupby(["s_x", "s_y"]).size().to_numpy(np.int64)
    return int(m.sum()), int((m * (m - 1) // 2).sum())


@pytest.mark.parametrize("plan,kwargs", [
    ("matrix", {}),
    ("shuffle", {}),
    # tiny thresholds force EVERY part through the salted replicate path
    ("shuffle", {"hot_degree": 2, "chunk_target": 2}),
])
def test_butterfly_plans_match_truth(plan, kwargs):
    e = _rand_bipartite(60, 40, 600, seed=7, hot_left_frac=0.3)
    truth = _local_truth(e)
    got = butterfly_fold(ray.data.from_pandas(e), plan=plan, **kwargs)
    assert got == truth


def test_butterfly_auto_switches_to_shuffle():
    """Above matrix_max_left the auto plan must take the shuffle path and
    still be exact (this is the >driver-limit equivalence the matrix
    plan's ValueError used to guard)."""
    e = _rand_bipartite(500, 60, 2500, seed=11)
    truth = _local_truth(e)
    # auto with a tiny matrix cap -> shuffle path
    got = butterfly_fold(e_ds := ray.data.from_pandas(e), plan="auto",
                         matrix_max_left=100)
    assert got == truth
    # matrix refuses loudly beyond the cap
    with pytest.raises(ValueError, match="matrix_max_left"):
        butterfly_fold(e_ds, plan="matrix", matrix_max_left=100)


def test_butterfly_empty_and_degenerate():
    # single part, d suppliers: wedges C(d,2), butterflies 0 (m==1 pairs)
    d = 9
    e = pd.DataFrame({"s": np.arange(d, dtype=np.int64),
                      "p": np.zeros(d, dtype=np.int64)})
    for plan in ("matrix", "shuffle"):
        assert butterfly_fold(ray.data.from_pandas(e), plan=plan) == (
            d * (d - 1) // 2, 0)
    # two identical parts: every pair has m=2 -> butterflies C(d,2)
    e2 = pd.concat([e, e.assign(p=1)], ignore_index=True)
    for plan in ("matrix", "shuffle"):
        assert butterfly_fold(ray.data.from_pandas(e2), plan=plan) == (
            d * (d - 1), d * (d - 1) // 2)


# ---------------------------------------------------------------------------
# dup_clusters plan="shuffle" (sharded label state)
# ---------------------------------------------------------------------------

from texrex_ray.dedup.clusters import dup_clusters  # noqa: E402


def _rand_pairs(n_nodes: int, n_edges: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "id_a": rng.integers(0, n_nodes, n_edges).astype(np.int64),
        "id_b": rng.integers(0, n_nodes, n_edges).astype(np.int64),
    })


def test_dup_clusters_shuffle_matches_driver():
    pairs = _rand_pairs(60, 50, seed=13)
    ds = ray.data.from_pandas(pairs)
    d = dup_clusters(ds, plan="driver")
    s = dup_clusters(ds, plan="shuffle")
    assert d.equals(s)


def test_dup_clusters_auto_takes_shuffle_beyond_driver_limit():
    """>driver_edge_limit edges must route plan="auto" through the
    sharded-label shuffle path and still match the driver plan."""
    pairs = _rand_pairs(40, 30, seed=29)
    ds = ray.data.from_pandas(pairs)
    d = dup_clusters(ds, plan="driver")
    s = dup_clusters(ds, plan="auto", driver_edge_limit=10)  # 30 edges > 10
    assert d.equals(s)


def test_dup_clusters_shuffle_chain_and_strings():
    # path graph: worst-case diameter; path halving must converge fast
    chain = pd.DataFrame({
        "id_a": np.arange(40, dtype=np.int64),
        "id_b": np.arange(1, 41, dtype=np.int64),
    })
    s = dup_clusters(ray.data.from_pandas(chain), plan="shuffle")
    assert (s["cluster_id"] == 0).all() and len(s) == 41
    # string doc ids survive the join/min machinery
    sp = pd.DataFrame({
        "id_a": [f"d{i:03d}" for i in [1, 2, 5, 7]],
        "id_b": [f"d{i:03d}" for i in [2, 3, 6, 5]],
    })
    d2 = dup_clusters(ray.data.from_pandas(sp), plan="driver")
    s2 = dup_clusters(ray.data.from_pandas(sp), plan="shuffle")
    assert d2.equals(s2)


# ---------------------------------------------------------------------------
# registry: curated driver window + split-package integrity
# ---------------------------------------------------------------------------


def test_registry_curated_window_and_completeness():
    """The driver's correctness gate samples the FIRST 50 registered
    queries; the package __init__ must keep the curated window intact,
    every entry oracle-backed, and the full registry at its frozen size."""
    import texrex_ray.pipelines.queries as q

    assert len(q.QUERIES) == 456
    assert len(q.ORACLE) == 456
    first = list(q.QUERIES)[:50]
    assert first == q._CURATED_FIRST
    # window samples the named subsystems (spot anchors)
    for must in ("q54_bigbig_join", "q97_boiler_scores", "q98_sessionization",
                 "q102_cuckoo_dedup", "q106_semdedup", "q62_segment_dedup",
                 "q39_dup_clusters", "q44_image_harvest"):
        assert must in first
    # same iteration order on both dicts
    assert list(q.ORACLE)[:50] == first
    # helpers are imported from the module that defines them
    from texrex_ray.pipelines.queries._core import _read  # noqa: F401
    from texrex_ray.pipelines.queries.flagships import _av_n  # noqa: F401


def test_dup_clusters_shuffle_salted_hop():
    """A dominant component makes every node share one lab — the hop
    self-join's hot key.  Forcing a tiny hot threshold exercises the
    salted path; results must still match the driver plan."""
    star = pd.DataFrame({
        "id_a": np.zeros(30, dtype=np.int64),
        "id_b": np.arange(1, 31, dtype=np.int64),
    })
    extra = pd.DataFrame({"id_a": [40, 41], "id_b": [41, 42]})
    pairs = pd.concat([star, extra], ignore_index=True)
    ds = ray.data.from_pandas(pairs)
    d = dup_clusters(ds, plan="driver")
    s = dup_clusters(ds, plan="shuffle", hop_hot_threshold=2)
    assert d.equals(s)
