"""Frontier-partition state without Ray: the walk and priority partitions
are plain objects here (no actors, no object store), plus the URL-seen
filters' full-filter refusals across snapshot/restore.  Nothing here needs
a Ray session: ``pytest --noconftest tests/test_partition.py`` runs the
file without ``ray.init``."""

import pickle

import pytest

from texrex_ray.crawl.engine import WalkPartition
from texrex_ray.crawl.fetcher import ArrowPagesTransport
from texrex_ray.crawl.policy import CrawlConfig
from texrex_ray.crawl.priority import PriorityPartition
from texrex_ray.functions.urlkit import host_of
from texrex_ray.sources.webgraph import make_webgraph
from texrex_ray.state.urlseen import make_url_seen, restore_url_seen


@pytest.fixture(scope="module")
def graph():
    return make_webgraph(n_hosts=6, pages_per_host_base=6, n_seeds=4, seed=3)


@pytest.fixture(scope="module")
def pages(graph):
    return ArrowPagesTransport.from_graph(graph)


def _walk_rounds(part, graph, rounds):
    """Feed every seed through gate_fetch once per round; returns the metas."""
    items = [(wid, u, "seed") for wid, u in enumerate(graph.seeds)]
    return [part.gate_fetch(items, now)[0] for now in rounds]


def _prio_rounds(part, rounds):
    out = []
    for now in rounds:
        picked = part.peek(4, now)
        res = part.fetch_selected(picked, now)
        part.enqueue(sorted({(u, now + 1) for r in res for u in r["links"]}))
        out.append((picked, [r["url"] for r in res]))
    return out


def _untimed(metrics):
    return {k: v for k, v in metrics.items() if k != "gate_ms"}  # wall clock


def _walk(graph, pages, cfg=None):
    return WalkPartition(0, graph.robots, pages, cfg or CrawlConfig())


def _prio(graph, pages, cfg=None):
    p = PriorityPartition(0, graph.robots, pages, cfg or CrawlConfig())
    p.enqueue([(u, 0) for u in graph.seeds])
    return p


def test_walk_partition_snapshot_roundtrip(graph, pages):
    a = _walk(graph, pages)
    _walk_rounds(a, graph, range(3))
    b = _walk(graph, pages)
    b.restore(a.snapshot())
    assert pickle.loads(b.snapshot()) == pickle.loads(a.snapshot())
    # the restored partition decides the next rounds exactly like the original
    assert _walk_rounds(b, graph, range(3, 6)) == _walk_rounds(a, graph, range(3, 6))
    assert _untimed(b.get_metrics()) == _untimed(a.get_metrics())


def test_priority_partition_snapshot_roundtrip(graph, pages):
    a = _prio(graph, pages)
    _prio_rounds(a, range(3))
    b = PriorityPartition(0, graph.robots, pages, CrawlConfig())
    b.restore(a.snapshot())
    assert pickle.loads(b.snapshot()) == pickle.loads(a.snapshot())
    assert _prio_rounds(b, range(3, 8)) == _prio_rounds(a, range(3, 8))
    assert b.frontier_size() == a.frontier_size()


@pytest.mark.parametrize("kind", ["walk", "priority"])
def test_host_export_import_matches_politeness_snapshot(kind, graph, pages):
    if kind == "walk":
        src, dst = _walk(graph, pages), _walk(graph, pages)
        _walk_rounds(src, graph, range(3))
    else:
        src, dst = _prio(graph, pages), PriorityPartition(0, graph.robots, pages, CrawlConfig())
        _prio_rounds(src, range(3))
    recorded = src.pm.snapshot()["hosts"]
    hosts = sorted(recorded)[:2]
    heap_before = [it for it in getattr(src, "heap", []) if host_of(it[2]) in hosts]
    dst.import_hosts(src.export_hosts(hosts))
    assert dst.pm.snapshot()["hosts"] == {h: recorded[h] for h in hosts}
    assert not set(hosts) & set(src.pm.snapshot()["hosts"])
    if kind == "priority":
        assert sorted(dst.heap) == sorted(heap_before)
        assert not [it for it in src.heap if host_of(it[2]) in hosts]


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
def test_url_seen_full_filter_survives_restore(backend):
    """A filter that hit its memory cap keeps refusing adds after a
    snapshot→restore, exactly like the filter that never stopped."""
    cfg = CrawlConfig(
        url_seen_backend=backend, bloom_initial_capacity=64, bloom_max_memory_mb=0
    )
    f = make_url_seen(cfg)
    f.add_if_new([f"http://h/{i}" for i in range(600)])
    assert f.out_of_memory and f.n_refused > 0
    g = restore_url_seen(f.snapshot())
    assert g.out_of_memory and g.n_refused == f.n_refused
    fresh = [f"http://h/new{i}" for i in range(40)]
    assert g.add_if_new(fresh).tolist() == f.add_if_new(fresh).tolist()
    assert g.n_refused == f.n_refused


def test_url_seen_refusals_are_counted_and_restored(graph, pages):
    cfg = CrawlConfig(bloom_initial_capacity=4, bloom_max_memory_mb=0)
    a = _prio(graph, pages, cfg)
    _prio_rounds(a, range(3))
    refused = a.get_metrics()["url_seen_refused"]
    assert refused > 0
    b = PriorityPartition(0, graph.robots, pages, cfg)
    b.restore(a.snapshot())
    links = [(f"http://host0.tld0/fresh{i}", 9) for i in range(5)]
    assert b.enqueue(links) == a.enqueue(links) == 0
    assert b.get_metrics()["url_seen_refused"] == refused + 5


def _n_segments(f) -> int:
    """Own plus chained-history segments."""
    return len(f.segments) + sum(len(parts) for _, parts in f.history.values())


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
def test_url_seen_history_keyed_by_origin(graph, pages, backend):
    """Repeated hot-host rebalances re-attach the same source filter: each
    attach replaces that origin's older copy instead of stacking another,
    and chained history stays outside the receiving filter's memory cap."""
    src = WalkPartition(1, graph.robots, pages, CrawlConfig(
        url_seen_backend=backend, bloom_initial_capacity=64))
    old = [f"http://h/{i}" for i in range(20_000)]
    for i in range(0, len(old), 64):  # crawl-sized batches fill segments evenly
        src.add_if_new(old[i:i + 64])
    dst = _walk(graph, pages, CrawlConfig(
        url_seen_backend=backend, bloom_initial_capacity=64,
        bloom_max_memory_mb=0.05))
    dst.attach_seen_base(src.export_seen())
    once = _n_segments(dst.seen)
    for _ in range(4):
        dst.attach_seen_base(src.export_seen())
    assert _n_segments(dst.seen) == once
    assert src.seen.memory_bytes > dst.seen.max_memory_bytes  # history > cap
    assert dst.seen.contains_many(old).all()
    fresh = [f"http://h/new{i}" for i in range(2000)]
    assert dst.add_if_new(fresh).all()
    assert dst.seen.n_refused == 0 and not dst.seen.out_of_memory
    assert dst.get_metrics().get("url_seen_refused", 0) == 0
    # the history survives a checkpoint round trip
    back = restore_url_seen(dst.seen.snapshot())
    assert _n_segments(back) == _n_segments(dst.seen)
    assert back.contains_many(old[:100] + fresh[:100]).all()


@pytest.mark.parametrize("backend", ["bloom", "cuckoo"])
def test_url_seen_full_filter_warns_once(backend, caplog):
    cfg = CrawlConfig(
        url_seen_backend=backend, bloom_initial_capacity=64, bloom_max_memory_mb=0
    )
    f = make_url_seen(cfg)
    with caplog.at_level("WARNING"):
        f.add_if_new([f"http://h/{i}" for i in range(600)])
        f.add_if_new([f"http://h/more{i}" for i in range(600)])
    assert f.n_refused > 600
    warnings = [r for r in caplog.records if "refusing adds" in r.getMessage()]
    assert len(warnings) == 1
