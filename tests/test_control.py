"""texcomm-equivalent control surface: dashboard, peek, walker add/remove,
live reconfigure (ref verbs: src/programs/texcomm.pas, trtexrex.pas:548-798)."""

import os

import pyarrow.parquet as pq
import pytest

from texrex_ray.crawl.engine import CrawlEngine
from texrex_ray.crawl.policy import CrawlConfig
from texrex_ray.sources.webgraph import make_webgraph


@pytest.fixture(scope="module")
def graph():
    return make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)


def test_status_and_peek(graph, ray_session):
    eng = CrawlEngine(graph, n_walkers=2, n_partitions=2, seed=3, config=CrawlConfig())
    try:
        eng.run(max_steps=40)
        st = eng.control_status()
        assert st["steps"] >= 40
        assert st["walkers_alive"] >= 1
        assert st["outputs"] > 0
        docs = eng.peek(3)
        assert 1 <= len(docs) <= 3
        for d in docs:
            assert d["url"].startswith("http://")
            assert len(d.get("text", "")) <= 400
            assert "links" not in d
    finally:
        eng.shutdown()


def test_add_and_remove_walkers(graph, ray_session):
    eng = CrawlEngine(graph, n_walkers=2, n_partitions=2, seed=5, config=CrawlConfig())
    try:
        eng.run(max_steps=20)
        before = eng.control_status()["walkers_alive"]
        new_ids = eng.add_walkers([[u] for u in graph.seeds[:3]])
        assert new_ids == [2, 3, 4]
        assert eng.control_status()["walkers_alive"] == before + 3
        eng.run(max_steps=40)  # new walkers actually take steps
        assert eng.remove_walkers(new_ids) == 3
        assert eng.control_status()["walkers_alive"] == before
        # removed walkers stop proposing but the run continues
        eng.run(max_steps=50)
    finally:
        eng.shutdown()


def test_reconfigure_live(graph, ray_session):
    eng = CrawlEngine(graph, n_walkers=1, n_partitions=2, seed=7, config=CrawlConfig())
    try:
        eng.run(max_steps=10)
        eng.reconfigure(max_links_per_step=1, min_politeness=5)
        assert eng.cfg.max_links_per_step == 1
        eng.run(max_steps=20)  # future steps honor the new caps
        with pytest.raises(AttributeError):
            eng.reconfigure(not_a_field=1)
    finally:
        eng.shutdown()


def test_reconfigure_politeness_spaces_fetches_across_resume(graph, ray_session, tmp_path):
    """After ``reconfigure(min_politeness=5)`` one host's non-cached
    fetches are at least 5 rounds apart, also once the crawl has been
    checkpointed, shut down and resumed."""
    d = str(tmp_path / "crawl")
    eng = CrawlEngine(graph, n_walkers=4, n_partitions=2, seed=11,
                      config=CrawlConfig(), out_dir=d)
    eng.run(max_steps=30)
    eng.reconfigure(min_politeness=5)
    start = eng.round
    eng.run(max_steps=90)
    eng.checkpoint()
    eng.shutdown()
    eng = CrawlEngine.resume(graph, d)
    resumed_at = eng.round
    try:
        eng.run(max_steps=150)  # flushes every visit row at the end
    finally:
        eng.shutdown()
    t = pq.read_table(os.path.join(d, "visits"), columns=["round", "host", "cached"])
    by_host: dict[str, list[int]] = {}
    for rnd, host, cached in zip(*(t[c].to_pylist() for c in t.column_names)):
        if not cached and rnd >= start:
            by_host.setdefault(host, []).append(rnd)
    gaps = [(h, b - a, b) for h, rs in by_host.items()
            for a, b in zip(sorted(rs), sorted(rs)[1:])]
    assert all(g >= 5 for _, g, _ in gaps), gaps
    assert sum(1 for *_, b in gaps if b >= resumed_at) >= 5  # checked after resume


def test_control_does_not_perturb_fidelity(graph, ray_session):
    """A status/peek call mid-run must not consume RNG or change the walk."""
    from texrex_ray.crawl.oracle import clarax_walk

    cfg = CrawlConfig()
    oracle = clarax_walk(graph, max_steps=80, seed=42, config=cfg)
    eng = CrawlEngine(graph, n_walkers=1, n_partitions=4, seed=42, config=cfg)
    try:
        eng.run(max_steps=40)
        eng.control_status()
        eng.peek(2)
        eng.run(max_steps=80)
        assert eng.visit_order() == oracle.visit_order
    finally:
        eng.shutdown()
