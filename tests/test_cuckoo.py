"""Cuckoo-filter URL-seen backend: exactness, deletion, growth, snapshot,
and crawl-engine equivalence with the Bloom backend.

The north rule names a "sharded bloom/cuckoo URL-seen filter"; both
backends are false-negative-free first-wins sets, so at fixture scale
(where neither false-positives) every crawl decision must be identical.
"""

import numpy as np
import pytest

from texrex_ray.state.cuckoo import ScalingCuckoo
from texrex_ray.state.urlseen import make_url_seen, restore_url_seen


def test_membership_exact_no_false_negatives():
    f = ScalingCuckoo(initial_capacity=256)
    items = [f"http://h{i % 97}.example/p{i}" for i in range(20_000)]
    new = f.add_if_new(items)
    assert new.all(), "fresh items misreported as seen (false positive)"
    assert f.contains_many(items).all(), "inserted item lost (false negative)"
    assert len(f.segments) > 1, "chain should have grown from capacity 256"
    # disjoint probe set: 32-bit fingerprints ⇒ FP ≈ 2e-9, none expected
    other = [f"http://other{i}.example/" for i in range(20_000)]
    assert f.contains_many(other).sum() == 0


def test_first_wins_intra_batch_duplicates():
    f = ScalingCuckoo(initial_capacity=64)
    out = f.add_if_new(["a", "b", "a", "a", "c", "b"])
    assert out.tolist() == [True, True, False, False, True, False]


def test_delete_then_readd():
    f = ScalingCuckoo(initial_capacity=128)
    items = [f"u{i}" for i in range(3000)]
    f.add_if_new(items)
    gone = f.delete_many(items[:100])
    assert gone.all()
    assert not f.contains_many(items[:100]).any()
    assert f.contains_many(items[100:]).all(), "deletion stripped a survivor"
    # deleted URLs are re-crawlable: add_if_new accepts them again
    assert f.add_if_new(items[:100]).all()
    assert f.contains_many(items).all()


def test_snapshot_restore_roundtrip():
    f = ScalingCuckoo(initial_capacity=64)
    items = [f"s{i}" for i in range(5000)]
    f.add_if_new(items)
    f.delete_many(items[:10])
    g = restore_url_seen(f.snapshot())
    assert isinstance(g, ScalingCuckoo)
    assert not g.contains_many(items[:10]).any()
    assert g.contains_many(items[10:]).all()
    assert g.n_added == f.n_added
    # restored filter keeps first-wins semantics
    assert not g.add_if_new(items[10:20]).any()


def test_memory_cap_refuses_adds():
    f = ScalingCuckoo(initial_capacity=64, max_memory_mb=0)
    out = f.add_if_new([f"m{i}" for i in range(100_000)])
    assert f.out_of_memory
    assert not out[-1], "adds must be refused (reported seen) once OOM"
    # everything actually admitted stays a member
    admitted = [f"m{i}" for i in np.nonzero(out)[0]]
    assert f.contains_many(admitted).all()


def test_freeze_and_chain_base():
    a = ScalingCuckoo(initial_capacity=64)
    a.add_if_new([f"a{i}" for i in range(500)])
    b = ScalingCuckoo(initial_capacity=64)
    b.add_if_new([f"b{i}" for i in range(500)])
    b.chain_base(a)
    assert b.contains_many([f"a{i}" for i in range(500)]).all()
    assert not b.add_if_new(["a1", "b1"]).any()
    assert b.add_if_new(["c1"]).all()


def test_factory_dispatch():
    from texrex_ray.crawl.policy import CrawlConfig
    from texrex_ray.state.bloom import ScalingBloom

    assert isinstance(make_url_seen(CrawlConfig()), ScalingBloom)
    cu = make_url_seen(CrawlConfig(url_seen_backend="cuckoo"))
    assert isinstance(cu, ScalingCuckoo)
    with pytest.raises(ValueError):
        make_url_seen(CrawlConfig(url_seen_backend="nope"))


def test_engine_equivalence_bloom_vs_cuckoo():
    """Visit order + URL-seen set identical under either backend."""
    from texrex_ray.crawl.engine import CrawlEngine
    from texrex_ray.crawl.oracle import clarax_walk
    from texrex_ray.crawl.policy import CrawlConfig
    from texrex_ray.sources.webgraph import make_webgraph

    graph = make_webgraph(n_hosts=8, pages_per_host_base=8, n_seeds=6, seed=9)
    runs = {}
    for backend in ("bloom", "cuckoo"):
        cfg = CrawlConfig(url_seen_backend=backend)
        eng = CrawlEngine(graph, n_walkers=2, n_partitions=2, seed=9, config=cfg)
        eng.run(max_steps=80)
        runs[backend] = (eng.visit_order(), eng.url_seen())
    assert runs["bloom"][0] == runs["cuckoo"][0]
    assert runs["bloom"][1] == runs["cuckoo"][1]
    # and the sequential oracle agrees with itself under cuckoo
    cfg = CrawlConfig(url_seen_backend="cuckoo")
    o = clarax_walk(graph, max_steps=60, seed=9, config=cfg)
    e = CrawlEngine(graph, n_walkers=1, n_partitions=2, seed=9, config=cfg)
    e.run(max_steps=60)
    assert e.visit_order() == o.visit_order
    assert e.url_seen() == o.url_seen
