"""Crawl engine: oracle fidelity, physical-layout determinism, checkpointing.

The BASELINE.json north-rule gates: the engine's single-walker projection
must reproduce the sequential ClaraX oracle's visit order and URL-seen set;
multi-walker runs must be bit-identical across partition/shard counts
(the cluster-size-independence evidence).
"""

import shutil

import pytest

from texrex_ray.crawl.engine import CrawlEngine
from texrex_ray.crawl.oracle import clarax_walk
from texrex_ray.crawl.policy import CrawlConfig, Walker
from texrex_ray.sources.webgraph import make_webgraph


@pytest.fixture(scope="module")
def graph():
    return make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)


def test_engine_matches_oracle_single_walker(graph):
    cfg = CrawlConfig()
    oracle = clarax_walk(graph, max_steps=120, seed=42, config=cfg)
    eng = CrawlEngine(graph, n_walkers=1, n_partitions=4, seed=42, config=cfg)
    eng.run(max_steps=120)
    assert eng.visit_order() == oracle.visit_order
    assert eng.url_seen() == oracle.url_seen
    assert len(oracle.visit_order) == 120


def test_engine_matches_oracle_other_seed(graph):
    cfg = CrawlConfig(random_jump_probability=0.2)
    oracle = clarax_walk(graph, max_steps=60, seed=7, config=cfg)
    eng = CrawlEngine(graph, n_walkers=1, n_partitions=2, seed=7, config=cfg)
    eng.run(max_steps=60)
    assert eng.visit_order() == oracle.visit_order
    assert eng.url_seen() == oracle.url_seen


def test_engine_deterministic_across_layouts(graph):
    """Same K: partition/shard counts must not change any decision."""
    cfg = CrawlConfig()
    runs = []
    for n_parts, n_shards in ((2, 1), (8, 4)):
        eng = CrawlEngine(
            graph, n_walkers=4, n_partitions=n_parts,
            n_walker_shards=n_shards, seed=42, config=cfg,
        )
        eng.run(max_steps=100)
        runs.append((eng.visit_order(), eng.url_seen()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_engine_one_worker_per_index_more_shards_than_partitions(graph):
    """Layouts with S > P (and S < P) start max(S, P) workers, and give
    the same visit order and URL-seen set as one shard on one partition."""
    cfg = CrawlConfig()
    runs = []
    for n_parts, n_shards in ((1, 1), (1, 4), (3, 2)):
        eng = CrawlEngine(
            graph, n_walkers=4, n_partitions=n_parts,
            n_walker_shards=n_shards, seed=42, config=cfg,
        )
        assert len(eng.workers) == max(n_shards, n_parts)
        eng.run(max_steps=100)
        runs.append((eng.visit_order(), eng.url_seen()))
        eng.shutdown()
    for order, seen in runs[1:]:
        assert order == runs[0][0]
        assert seen == runs[0][1]


def test_crawl_modules_import_without_polars_or_pandas():
    """Crawl workers import only the crawl path: neither engine module may
    pull in polars or pandas (each adds tens of MB to every worker)."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, texrex_ray.crawl.engine, texrex_ray.crawl.priority\n"
        "print(sorted(m for m in ('polars', 'pandas') if m in sys.modules))"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=repo)
    assert out.stdout.strip() == "[]"


def test_robots_and_politeness_respected(graph):
    cfg = CrawlConfig()
    eng = CrawlEngine(graph, n_walkers=4, n_partitions=4, seed=1, config=cfg)
    eng.run(max_steps=150)
    from texrex_ray.state.politeness import parse_robots

    rules = {h: parse_robots(b or "", cfg.agent) for h, b in graph.robots.items()}
    from urllib.parse import urlsplit

    # corpus contains no robots-disallowed URL
    for row in eng.collect_corpus():
        sp = urlsplit(row["url"])
        assert rules[sp.hostname].allows(sp.path or "/"), row["url"]
    # non-cached fetches of the same host are spaced ≥ its crawl delay
    fetch_rounds: dict[str, list[int]] = {}
    for rnd, _wid, url, host, _a, cached in sorted(eng.visit_rows):
        if not cached:
            fetch_rounds.setdefault(host, []).append(rnd)
    for host, rounds in fetch_rounds.items():
        delay = max(rules[host].crawl_delay, cfg.min_politeness)
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        assert all(g >= delay for g in gaps), (host, delay, rounds)


def test_checkpoint_resume_identical(graph, tmp_path):
    cfg = CrawlConfig()
    # straight run
    full = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg)
    full.run(max_steps=100)
    # checkpointed run: stop mid-way by rounds, resume, finish
    d = str(tmp_path / "crawl")
    e1 = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg, out_dir=d)
    e1.run(max_steps=100, checkpoint_every=10, max_rounds=30)
    assert e1.steps < 100
    ck = e1.checkpoint()
    # lineage manifest: every partition's persisted corpus files accounted
    # for, and the union matches what is actually on disk
    import json as _json
    import os as _os

    with open(_os.path.join(ck, "lineage.json")) as f:
        lineage = _json.load(f)
    assert len(lineage["partitions"]) == 4
    for p in lineage["partitions"]:
        pdir = _os.path.join(d, "corpus", f"part={p['part_id']:04d}")
        on_disk = sorted(
            fn for fn in (_os.listdir(pdir) if _os.path.isdir(pdir) else [])
            if fn.endswith(".parquet")
        )
        assert p["corpus_files"] == on_disk
        assert p["state_bytes"] > 0
    e2 = CrawlEngine.resume(graph, d)
    e2.run(max_steps=100)
    resumed_visits = e2.visit_order()
    # the resumed engine only logs post-resume visits; compare the tail
    tail = full.visit_order()[len(full.visit_order()) - len(resumed_visits):]
    assert [v[1:] for v in resumed_visits] == [v[1:] for v in tail]
    assert full.steps == e2.steps
    shutil.rmtree(d, ignore_errors=True)


def test_abrupt_actor_kill_resume(graph, tmp_path):
    """Node-loss drill (north rule: resumable from per-partition
    checkpoints).  Unlike the graceful test above, every actor is
    hard-killed mid-window — no shutdown, no final checkpoint, with
    output files flushed PAST the last COMMIT (a crash between a flush
    and its COMMIT marker).  Resume must (a) restart from the last
    committed round, discarding the uncommitted tail, (b) garbage-collect
    the orphaned post-commit output files, and (c) complete a walk
    bit-identical to an uninterrupted run, with every corpus URL written
    exactly once."""
    import os

    import pyarrow.parquet as pq
    import ray

    cfg = CrawlConfig()
    full = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg)
    full.run(max_steps=120)

    d = str(tmp_path / "crash")
    e1 = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg, out_dir=d)
    # checkpoints COMMIT at rounds 8/16/24; run() flushes rounds 25-27 at
    # exit but never commits them — exactly the torn-checkpoint window
    e1.run(max_steps=120, checkpoint_every=8, max_rounds=27)
    assert e1.steps < 120
    steps_at_crash = e1.steps
    # visits/corpus files stamped beyond round 24 exist on disk (orphans)
    vd = os.path.join(d, "visits")

    def _round_of(fname):
        return int(fname.split("-r")[1].split("-")[0])

    assert any(_round_of(f) > 24 for f in os.listdir(vd))
    # simulate node loss: hard-kill every state-holding actor
    for a in list(e1.parts) + list(e1.shards):
        ray.kill(a, no_restart=True)

    e2 = CrawlEngine.resume(graph, d)
    assert e2.round == 24  # last COMMITTED window, not the crash point
    assert e2.steps <= steps_at_crash  # uncommitted tail discarded
    # orphaned post-commit outputs were removed before re-crawling
    assert all(_round_of(f) <= 24 for f in os.listdir(vd))
    e2.run(max_steps=120)

    # the completed walk is bit-identical to the uninterrupted run
    # (flushed pre-crash rows <= round 24 + re-crawled tail)
    assert [v[1:] for v in e2.visit_order()] == [v[1:] for v in full.visit_order()]
    assert e2.steps == full.steps
    assert e2.url_seen() == full.url_seen()
    # exactly-once output: no corpus URL appears twice across all flushes
    urls = []
    croot = os.path.join(d, "corpus")
    for part in sorted(os.listdir(croot)):
        pdir = os.path.join(croot, part)
        for f in sorted(os.listdir(pdir)):
            if f.endswith(".parquet"):
                urls.extend(pq.read_table(os.path.join(pdir, f), columns=["url"])["url"].to_pylist())
    assert len(urls) == len(set(urls))
    shutil.rmtree(d, ignore_errors=True)


def test_resume_ignores_torn_latest_checkpoint(graph, tmp_path):
    """A crash mid-checkpoint leaves a round directory without COMMIT;
    resume must fall back to the previous committed round and still
    complete the identical walk."""
    import os

    cfg = CrawlConfig()
    full = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg)
    full.run(max_steps=100)

    d = str(tmp_path / "torn")
    e1 = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg, out_dir=d)
    e1.run(max_steps=100, checkpoint_every=10, max_rounds=20)
    # simulate a crash midway through a LATER checkpoint: state blobs
    # written, COMMIT never reached
    torn = os.path.join(d, "ckpt", "round=00000025")
    os.makedirs(torn)
    with open(os.path.join(torn, "part-0.pkl"), "wb") as f:
        f.write(b"\x80\x04N.")  # valid pickle of None — must never be read

    e2 = CrawlEngine.resume(graph, d)
    assert e2.round == 20  # the torn round=25 dir was ignored
    e2.run(max_steps=100)
    assert [v[1:] for v in e2.visit_order()] == [v[1:] for v in full.visit_order()]
    assert e2.url_seen() == full.url_seen()
    shutil.rmtree(d, ignore_errors=True)


def test_driver_memory_bounded(graph, tmp_path):
    """North-rule design point: the driver holds no per-URL state — the
    visit log truncates at every flush and the URL-seen set lives in the
    partition actors / parquet, so driver memory is O(checkpoint window)."""
    cfg = CrawlConfig()
    d = str(tmp_path / "bounded")
    eng = CrawlEngine(graph, n_walkers=4, n_partitions=4, seed=42, config=cfg, out_dir=d)
    eng.run(max_steps=200, checkpoint_every=5)
    assert not hasattr(eng, "output_urls")  # the unbounded set is gone
    assert len(eng.visit_rows) == 0  # flushed + truncated at run end
    assert eng._visits_flushed_rows == eng.steps
    # reconstruction from parquet ≡ the in-memory (no out_dir) semantics
    mem = CrawlEngine(graph, n_walkers=4, n_partitions=4, seed=42, config=cfg)
    mem.run(max_steps=200)
    assert eng.visit_order() == mem.visit_order()
    assert eng.url_seen() == mem.url_seen()
    # mid-window the tail is bounded by walkers × checkpoint_every
    eng2 = CrawlEngine(graph, n_walkers=4, n_partitions=4, seed=42, config=cfg, out_dir=d + "2")
    eng2.run(max_steps=200, checkpoint_every=5, max_rounds=23)
    assert len(eng2.visit_rows) <= 4 * 5
    shutil.rmtree(d, ignore_errors=True)
    shutil.rmtree(d + "2", ignore_errors=True)


def test_host_scope_and_jitter_config(graph):
    """HostScopeRegex confines the crawl; AddRandomWaitUpTo spreads fetches
    without breaking layout determinism (ref: trwalkers.pas:630-644,774-823)."""
    cfg = CrawlConfig(host_scope_regex=r"\.tld0$", random_jump_probability=0.0)
    eng = CrawlEngine(graph, n_walkers=2, n_partitions=2, seed=42, config=cfg)
    eng.run(max_steps=60, max_rounds=400)
    hosts = {h for _, _, h, _ in eng.visit_order() if h}
    # every non-seed host reached via links is inside the scope; seeds may
    # be off-scope (the reference also fetches seeds unconditionally)
    followed = [h for _, _, h, a in eng.visit_order() if a == "step"]
    assert followed and all(h.endswith(".tld0") for h in followed), hosts

    runs = []
    for n_parts in (2, 8):
        cfg_j = CrawlConfig(add_random_wait_up_to=3)
        e = CrawlEngine(graph, n_walkers=4, n_partitions=n_parts, seed=42, config=cfg_j)
        e.run(max_steps=80, max_rounds=400)
        runs.append(e.visit_order())
        assert sum(e.stats.partition_metrics[p].get("jitter_waits", 0)
                   for p in e.stats.partition_metrics) > 0
    assert runs[0] == runs[1]  # jitter is (url, round)-deterministic


def test_block_file_regex(graph):
    cfg = CrawlConfig(block_file_regex=r"/p[0-3]$")
    eng = CrawlEngine(graph, n_walkers=2, n_partitions=2, seed=42, config=cfg)
    eng.run(max_steps=60, max_rounds=300)
    followed = [u for _, u, _, a in eng.visit_order() if a == "step"]
    assert followed and not any(u.rstrip("/").endswith(("p0", "p1", "p2", "p3"))
                                for u in followed)


def test_walker_snapshot_roundtrip():
    cfg = CrawlConfig()
    w = Walker(3, ["http://a.com/", "http://b.com/"], 42, cfg)
    p1 = w.propose()
    w.deliver(True, ["http://a.com/x", "http://a.com/y"])
    w2 = Walker.restore(w.snapshot(), cfg)
    # identical future behavior
    assert w2.propose() == w.propose()


def test_salted_rebalance_preserves_order(graph):
    """Hot-shard salted repartition must not change any crawl decision."""
    cfg = CrawlConfig()
    base = CrawlEngine(graph, n_walkers=4, n_partitions=4, seed=42, config=cfg)
    base.run(max_steps=120)

    eng = CrawlEngine(graph, n_walkers=4, n_partitions=4, seed=42, config=cfg)
    eng.run(max_steps=60)
    salt = eng.rebalance_hot_partitions(hot_ratio=0.5)  # force migrations
    assert salt  # something moved
    eng.run(max_steps=120)
    assert eng.visit_order() == base.visit_order()
    assert eng.url_seen() == base.url_seen()
    urls = [r["url"] for r in eng.collect_corpus()]
    assert len(urls) == len(set(urls))  # every accepted URL output once


def test_priority_engine_deterministic_and_degree_biased(graph):
    from texrex_ray.crawl.priority import PriorityCrawlEngine

    runs = []
    for n_parts in (2, 4):
        eng = PriorityCrawlEngine(graph, n_partitions=n_parts, budget_per_round=8)
        stats = eng.run(max_fetches=80)
        runs.append(eng.visit_order())
        assert stats.fetched >= 80
        eng.shutdown()
    # schedule independent of the partition count
    assert runs[0] == runs[1]
    # degree bias: host0 (most pages → most inbound links) dominates the
    # early crawl compared to the tail host
    early_hosts = [h for _, _, h in runs[0][:30]]
    assert early_hosts.count("host0.tld0") > early_hosts.count("host9.tld0")


def test_priority_engine_politeness(graph):
    from texrex_ray.crawl.priority import PriorityCrawlEngine
    from texrex_ray.state.politeness import parse_robots
    from urllib.parse import urlsplit

    eng = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=16)
    eng.run(max_fetches=100)
    rules = {h: parse_robots(b or "") for h, b in graph.robots.items()}
    per_host_rounds: dict[str, list[int]] = {}
    for rnd, url, host in eng.visit_order():
        assert rules[host].allows(urlsplit(url).path or "/")
        per_host_rounds.setdefault(host, []).append(rnd)
    for host, rounds in per_host_rounds.items():
        delay = max(rules[host].crawl_delay, 1)
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        assert all(g >= delay for g in gaps), (host, delay, rounds)
    eng.shutdown()


def test_priority_engine_checkpoint_resume(graph, tmp_path):
    """The priority frontier is resumable (north rule: the degree-biased
    scheduler's per-partition checkpoints carry frontier heaps, degree
    counters, politeness clocks and URL-seen segments): a run interrupted
    at a checkpoint boundary and resumed completes the identical crawl."""
    import os

    from texrex_ray.crawl.priority import PriorityCrawlEngine

    full = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=8)
    full.run(max_fetches=80)

    d = str(tmp_path / "prio")
    e1 = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=8, out_dir=d)
    e1.run(max_fetches=80, checkpoint_every=3, max_rounds=6, keep_checkpoints=1)
    assert e1.fetched < 80
    ckroot = os.path.join(d, "ckpt")
    committed = [
        c for c in os.listdir(ckroot)
        if os.path.exists(os.path.join(ckroot, c, "COMMIT"))
    ]
    assert committed == ["round=00000006"]  # retention bound enforced
    ck = os.path.join(ckroot, "round=00000006")
    import json as _json

    with open(os.path.join(ck, "lineage.json")) as f:
        lineage = _json.load(f)
    assert len(lineage["partitions"]) == 4
    assert all(p["state_bytes"] > 0 for p in lineage["partitions"])
    e1.shutdown()

    e2 = PriorityCrawlEngine.resume(graph, d)
    assert e2.round == 6
    e2.run(max_fetches=80)
    assert e2.visit_order() == full.visit_order()
    assert e2.fetched == full.fetched
    full.shutdown()
    e2.shutdown()
    shutil.rmtree(d, ignore_errors=True)


def test_priority_rebalance_preserves_schedule(graph, tmp_path):
    """Salted hot-host rebalance (north rule: skewed hot-host shards split
    via salted repartition) migrates frontier/degree/politeness state and
    chains URL-seen history — and must not move a single visit: candidate
    selection is a global merge, so placement affects memory, never
    order.  The salt map survives checkpoint/resume."""
    from texrex_ray.crawl.priority import PriorityCrawlEngine

    base = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=8)
    base.run(max_fetches=120)

    d = str(tmp_path / "rebal")
    eng = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=8, out_dir=d)
    eng.run(max_fetches=40, checkpoint_every=5)
    moved = eng.rebalance_hot_partitions(hot_ratio=1.0, max_hosts=4)
    assert moved  # ratio 1.0 forces a move off any above-mean partition
    eng.run(max_fetches=120)
    assert eng.visit_order() == base.visit_order()
    assert eng.fetched == base.fetched

    eng.checkpoint()
    e2 = PriorityCrawlEngine.resume(graph, d)
    assert e2.salt == eng.salt  # reroutes survive resume
    base.shutdown()
    eng.shutdown()
    e2.shutdown()
    shutil.rmtree(d, ignore_errors=True)


def test_priority_checkpoint_cadence_under_deferral(tmp_path):
    """Politeness-deferred rounds (nothing eligible to fetch) must still
    hit the checkpoint_every cadence — a crawl-delay streak must not
    stretch the commit window beyond the contract."""
    import os

    from texrex_ray.crawl.priority import PriorityCrawlEngine

    g = make_webgraph(n_hosts=2, pages_per_host_base=10, n_seeds=2, seed=7)
    # every host slow: most rounds defer entirely behind Crawl-delay
    g.robots = {h: "User-agent: *\nCrawl-delay: 4\n" for h in g.hosts}
    d = str(tmp_path / "defer")
    eng = PriorityCrawlEngine(g, n_partitions=2, budget_per_round=4, out_dir=d)
    eng.run(max_fetches=50, max_rounds=9, checkpoint_every=1)
    ckroot = os.path.join(d, "ckpt")
    committed = sorted(
        c for c in os.listdir(ckroot)
        if os.path.exists(os.path.join(ckroot, c, "COMMIT"))
    )
    # one commit per round, including the deferred ones
    assert committed == [f"round={r:08d}" for r in range(1, 10)]
    # sanity: the crawl-delay actually deferred most rounds
    assert eng.fetched < 9
    eng.shutdown()
    shutil.rmtree(d, ignore_errors=True)


def test_priority_engine_abrupt_kill_resume(graph, tmp_path):
    """Node-loss drill for the priority engine: hard-kill all partition
    actors mid-window with outputs flushed past the last COMMIT; resume
    discards the uncommitted tail, garbage-collects orphans, and finishes
    the identical crawl with every corpus URL written exactly once."""
    import os

    import pyarrow.parquet as _pq
    import ray

    from texrex_ray.crawl.priority import PriorityCrawlEngine

    full = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=8)
    full.run(max_fetches=80)

    d = str(tmp_path / "prio_crash")
    e1 = PriorityCrawlEngine(graph, n_partitions=4, budget_per_round=8, out_dir=d)
    # COMMITs at rounds 3/6; run() flushes rounds 7-8 at exit uncommitted
    e1.run(max_fetches=80, checkpoint_every=3, max_rounds=8)
    fetched_at_crash = e1.fetched
    for a in list(e1.parts):
        ray.kill(a, no_restart=True)

    e2 = PriorityCrawlEngine.resume(graph, d)
    assert e2.round == 6
    assert e2.fetched <= fetched_at_crash
    vd = os.path.join(d, "visits")
    assert all(
        int(f.split("-r")[1].split("-")[0]) <= 6 for f in os.listdir(vd)
    )
    e2.run(max_fetches=80)
    assert e2.visit_order() == full.visit_order()
    assert e2.fetched == full.fetched
    # exactly-once corpus output across the crash
    urls = []
    croot = os.path.join(d, "corpus")
    for part in sorted(os.listdir(croot)):
        pdir = os.path.join(croot, part)
        for f in sorted(os.listdir(pdir)):
            if f.endswith(".parquet"):
                urls.extend(
                    _pq.read_table(os.path.join(pdir, f), columns=["url"])["url"].to_pylist()
                )
    assert len(urls) == len(set(urls))
    assert sorted(set(urls)) == sorted({u for _, u, _ in full.visit_order()})
    full.shutdown()
    e2.shutdown()
    shutil.rmtree(d, ignore_errors=True)


def test_rank_priority_crawl_deterministic_and_rank_sensitive(ray_session):
    """Host-score bias: schedule is partition-count invariant and actually
    differs from the unbiased degree-only schedule."""
    from texrex_ray.crawl.priority import PriorityCrawlEngine
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)
    # a deliberately skewed static bias: the lexically last host boosted far above any degree
    hosts = sorted({p.host for p in g.pages.values()})
    scores = {hosts[-1]: 10_000_000}

    def run(n_parts):
        # budget < host count so the global selection actually chooses
        eng = PriorityCrawlEngine(
            g, n_partitions=n_parts, budget_per_round=4, host_scores=scores
        )
        eng.run(max_fetches=60)
        rows = eng.visit_order()
        eng.shutdown()
        return rows

    a, b = run(2), run(4)
    assert a == b  # physical layout never changes the schedule

    eng = PriorityCrawlEngine(g, n_partitions=4, budget_per_round=4)
    eng.run(max_fetches=60)
    plain = eng.visit_order()
    eng.shutdown()
    assert a != plain  # the bias changed the schedule
    # the boosted host is overrepresented early relative to the plain run
    early = lambda rows: sum(1 for _, _, h in rows[:30] if h == hosts[-1])
    assert early(a) >= early(plain)


def test_politeness_budget_holds_in_visit_log(graph):
    """North-rule politeness invariant, proven from the walk's own
    output: two non-cached fetches of the same host must be at least
    max(crawl_delay, min_politeness) ROUNDS apart, across all walkers
    and partitions (the per-host state is pinned to one frontier
    partition precisely so this holds under concurrency)."""
    from collections import defaultdict

    cfg = CrawlConfig(min_politeness=3)
    eng = CrawlEngine(graph, n_walkers=8, n_partitions=4, seed=11, config=cfg)
    eng.run(max_steps=300)
    by_host = defaultdict(list)
    for rnd, _wid, _url, host, _action, cached in eng.visit_rows:
        if not cached:  # cache hits never touch the host
            by_host[host].append(rnd)
    eng.shutdown()
    checked = 0
    for host, rounds in by_host.items():
        rounds.sort()
        for a, b in zip(rounds, rounds[1:]):
            assert b - a >= 3, (host, a, b)
            checked += 1
        # same-round double-fetch of one host is also a violation
        assert len(set(rounds)) == len(rounds), host
    assert checked >= 20  # the walk actually revisited hosts


def test_checkpoint_pruning_keeps_resume_working(graph, tmp_path):
    """prune_checkpoints bounds retention to the newest keep_last COMMITTED
    rounds; resume from the survivor matches the unpruned run exactly."""
    import os
    import shutil

    cfg = CrawlConfig()
    d = str(tmp_path / "crawl")
    e1 = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg, out_dir=d)
    e1.run(max_steps=100, checkpoint_every=5, max_rounds=30, keep_checkpoints=2)
    ckroot = os.path.join(d, "ckpt")
    committed = sorted(
        c for c in os.listdir(ckroot)
        if os.path.exists(os.path.join(ckroot, c, "COMMIT"))
    )
    assert len(committed) == 2  # retention bound enforced during run()

    # an uncommitted dir NEWER than the last commit is never touched (it
    # may belong to a checkpoint in flight); a torn dir OLDER than the
    # last commit is garbage-collected (it can never be completed)
    stray = os.path.join(ckroot, "round=99999999")
    torn = os.path.join(ckroot, "round=00000001")
    os.makedirs(stray)
    os.makedirs(torn, exist_ok=True)
    open(os.path.join(torn, "part-0.pkl"), "wb").write(b"x")
    pruned = e1.prune_checkpoints(keep_last=1)
    assert os.path.isdir(stray)
    assert not os.path.isdir(torn)
    assert len(pruned) == 2  # one pruned commit + the torn dir
    survivors = sorted(
        c for c in os.listdir(ckroot)
        if os.path.exists(os.path.join(ckroot, c, "COMMIT"))
    )
    assert survivors == [committed[-1]]

    # resume from the lone survivor and finish; must equal a straight run
    e2 = CrawlEngine.resume(graph, d)
    e2.run(max_steps=100)
    full = CrawlEngine(graph, n_walkers=2, n_partitions=4, seed=42, config=cfg)
    full.run(max_steps=100)
    assert full.steps == e2.steps
    resumed_visits = e2.visit_order()
    tail = full.visit_order()[len(full.visit_order()) - len(resumed_visits):]
    assert [v[1:] for v in resumed_visits] == [v[1:] for v in tail]
    shutil.rmtree(d, ignore_errors=True)
