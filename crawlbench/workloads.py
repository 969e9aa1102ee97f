"""The three workloads: crawl-wide, crawl-resume and corpus-clean.

Each workload drives ``texrex_ray`` only through public calls and exposes
the same five phases to the runner:

- ``prepare``: synthesize the seeded inputs (timed as ``sources.inputs_s``);
- ``setup_pass``: build the engines or pipelines and warm them (a few
  rounds, or a whole iteration for corpus-clean); run ``setup_passes``
  times, the median goes into ``setup_s``;
- ``reference``: what every measured iteration must reproduce: a full
  untimed run under another layout (crawl-wide), uninterrupted runs
  (crawl-resume) or expected outputs computed in process without Ray
  (corpus-clean), plus one-off checks such as the ClaraX oracle;
- ``iteration``: one measured iteration, from inputs to committed output
  on disk; returns the work items it completed.  Output checks run after
  the clock stops;
- ``layers``: per-layer metrics from the traced iterations' spans and the
  traced-only extras (per-URL replay, operator table).
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

import inputs
from harness import Ops, StatsCapture, Tracer, median, timed_method

# size presets; "tiny" exists for the benchmark's own tests
SIZES = {
    "crawl-wide": {
        "full": dict(hosts=1200, seeds=512, walkers=512, steps=8000, oracle_steps=150),
        "tiny": dict(hosts=40, seeds=16, walkers=16, steps=300, oracle_steps=40),
    },
    "crawl-resume": {
        "full": dict(hosts=300, seeds=64, walkers=8, steps=400, budget=32,
                     fetches=400, every=4, keep=3),
        "tiny": dict(hosts=40, seeds=16, walkers=4, steps=150, budget=8,
                     fetches=150, every=4, keep=2),
    },
    "corpus-clean": {
        "full": dict(hosts=300, seeds=64, walkers=64, steps=1000, docs=2000,
                     tender_docs=1000, images=250),
        "tiny": dict(hosts=30, seeds=8, walkers=8, steps=150, docs=600,
                     tender_docs=600, images=48),
    },
}


def _digest(rows) -> str:
    h = hashlib.blake2b(digest_size=16)
    for r in rows:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def _dir_bytes(d: str) -> int:
    return sum(
        os.path.getsize(os.path.join(p, f)) for p, _, fs in os.walk(d) for f in fs
    )


def _committed(out_dir: str) -> tuple[int, int]:
    """(retained checkpoint dirs, how many of them carry a COMMIT)."""
    cks = glob.glob(os.path.join(out_dir, "ckpt", "round=*"))
    return len(cks), sum(os.path.exists(os.path.join(c, "COMMIT")) for c in cks)


def _corpus_urls(out_dir: str) -> set[str]:
    files = glob.glob(os.path.join(out_dir, "corpus", "part=*", "*.parquet"))
    return {u for f in files for u in pq.read_table(f, columns=["url"])["url"].to_pylist()}


@dataclass
class Context:
    out: str
    cache: str
    seed: int
    size: dict
    ncpu: int
    ops: Ops
    tracer: Tracer
    stats: StatsCapture
    inputs_s: float = 0.0
    iter_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)

    def untraced_s(self) -> list[float]:
        """Times of the iterations that ran without tracing, in order."""
        return [t for t, on in zip(self.iter_s, self.traced) if not on]

    def fresh(self, name: str) -> str:
        d = os.path.join(self.out, name)
        shutil.rmtree(d, ignore_errors=True)
        return d


# -- crawl-wide -------------------------------------------------------------


class CrawlWide:
    """512 walkers, one 8000-step budget, one final checkpoint: a few heavy
    rounds whose cost is per-URL gate, fetch and URL-seen work."""

    name = "crawl-wide"
    setup_passes = 2
    min_iterations = 1

    def prepare(self, c: Context) -> None:
        from texrex_ray.crawl.policy import CrawlConfig

        self.graph = inputs.webgraph(c.size["hosts"], c.size["seeds"], c.seed, c.cache)
        self.cfg = CrawlConfig(collect_images=True)
        self.parts = max(2, c.ncpu // 4)
        self.walk_stats: list = []

    def _engine(self, c: Context, out_dir, parts, shards):
        from texrex_ray.crawl.engine import CrawlEngine

        return c.ops.call(
            "CrawlEngine", CrawlEngine, self.graph, n_walkers=c.size["walkers"],
            n_partitions=parts, n_walker_shards=shards, seed=c.seed,
            config=self.cfg, out_dir=out_dir,
        )

    def setup_pass(self, c: Context, k: int) -> None:
        eng = self._engine(c, c.fresh(f"setup{k}"), self.parts, self.parts)
        c.ops.call("CrawlEngine.run", eng.run, max_steps=c.size["steps"], max_rounds=1)
        c.ops.call("CrawlEngine.shutdown", eng.shutdown)

    def _outcome(self, eng, st) -> dict:
        order = eng.visit_order()
        return {
            "order": _digest(order),
            "seen": _digest(sorted(eng.url_seen())),
            "counts": (st.steps, st.fetches, st.waits, st.outputs, st.cache_hits),
        }

    def reference(self, c: Context) -> None:
        from texrex_ray.crawl.engine import CrawlEngine
        from texrex_ray.crawl.oracle import clarax_walk
        from texrex_ray.crawl.policy import CrawlConfig

        # partition invariance: a different physical layout (one partition,
        # one walker shard) must give the same visit order, URL-seen set
        # and counts
        eng = self._engine(c, c.fresh("reference"), 1, 1)
        st = c.ops.call("CrawlEngine.run", eng.run, max_steps=c.size["steps"])
        c.ops.call("CrawlEngine.checkpoint", eng.checkpoint)
        c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        self.ref = self._outcome(eng, st)
        # single-walker projection == the sequential ClaraX oracle
        n = c.size["oracle_steps"]
        one = c.ops.call(
            "CrawlEngine", CrawlEngine, self.graph, n_walkers=1, n_partitions=1,
            n_walker_shards=1, seed=c.seed, config=CrawlConfig(),
        )
        c.ops.call("CrawlEngine.run", one.run, max_steps=n)
        got = (one.visit_order(), one.url_seen())
        c.ops.call("CrawlEngine.shutdown", one.shutdown)
        t0 = time.perf_counter()
        want = c.ops.call("clarax_walk", clarax_walk, self.graph, n, seed=c.seed)
        self.oracle_s = time.perf_counter() - t0
        c.ops.check("single_walker_equals_oracle",
                    got == (want.visit_order, want.url_seen),
                    f"{len(got[0])} vs {len(want.visit_order)} visits")

    def iteration(self, c: Context, k: int) -> int:
        tr = c.tracer
        out_dir = c.fresh(f"it{k}")
        t0 = time.perf_counter()
        with tr.span("walk.ctor"):
            eng = self._engine(c, out_dir, self.parts, self.parts)
        with tr.span("walk.run"):
            st = c.ops.call("CrawlEngine.run", eng.run, max_steps=c.size["steps"])
        with tr.span("walk.checkpoint"):
            ck = c.ops.call("CrawlEngine.checkpoint", eng.checkpoint)
        with tr.span("walk.shutdown"):
            c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        c.iter_s.append(time.perf_counter() - t0)
        got = self._outcome(eng, st)
        c.ops.check("visit_order_partition_invariant", got == self.ref,
                    f"{got['counts']} vs {self.ref['counts']}")
        c.ops.check("final_checkpoint_committed", os.path.exists(os.path.join(ck, "COMMIT")))
        if tr.enabled:
            self.walk_stats.append(st)
            self.ckpt_bytes = _dir_bytes(ck)
            self.traced_dir = out_dir
        return st.steps

    def _replay(self, c: Context) -> dict:
        """Per-URL layers in process over the traced run's fetched URLs:
        politeness gate, fetch_parse and URL-seen add_if_new per round."""
        from texrex_ray.crawl.fetcher import ArrowPagesTransport, fetch_parse
        from texrex_ray.functions.urlkit import host_of
        from texrex_ray.state.politeness import PolitenessManager
        from texrex_ray.state.urlseen import make_url_seen

        vis = pq.read_table(os.path.join(self.traced_dir, "visits"))
        rows = sorted(
            (r, w, u) for r, w, u, cached in zip(
                vis["round"].to_pylist(), vis["walker_id"].to_pylist(),
                vis["url"].to_pylist(), vis["cached"].to_pylist())
            if not cached
        )
        by_round: dict[int, list[str]] = {}
        for r, _w, u in rows:
            by_round.setdefault(r, []).append(u)
        cfg = self.cfg
        pages = ArrowPagesTransport.from_graph(self.graph)
        pm = PolitenessManager(cfg.min_politeness, cfg.robots_refresh_interval, cfg.agent)
        seen = make_url_seen(cfg)
        t_gate = t_fetch = t_seen = 0.0
        for now, urls in sorted(by_round.items()):
            t0 = time.perf_counter()
            for u in urls:
                host = host_of(u)
                if pm.needs_robots(host, now):
                    pm.set_robots(host, self.graph.robots.get(host), now)
                pm.seconds_until_retrieval(u, now)
                pm.retrieved(u, now)
            t1 = time.perf_counter()
            for u in urls:
                fetch_parse(pages, u, cfg)
            t2 = time.perf_counter()
            seen.add_if_new(urls)
            t3 = time.perf_counter()
            t_gate, t_fetch, t_seen = t_gate + t1 - t0, t_fetch + t2 - t1, t_seen + t3 - t2
        n = max(1, len(rows))
        return {
            "politeness.gate_us": t_gate / n * 1e6,
            "fetcher.fetch_parse_us": t_fetch / n * 1e6,
            "urlseen.add_if_new_us": t_seen / n * 1e6,
            "urlseen.segments": len(seen.segments),
            "urlseen.memory_mb": seen.memory_bytes / (1 << 20),
        }

    def layers(self, c: Context) -> dict:
        m = walk_layers(c.tracer, self.walk_stats, c.untraced_s())
        m["walk.checkpoint_ms"] = median(c.tracer.durations("walk.checkpoint")) * 1e3
        m["walk.ckpt_bytes"] = self.ckpt_bytes
        m["oracle.walk_s"] = self.oracle_s
        m.update(self._replay(c))
        return m


def walk_layers(tr: Tracer, stats: list, untraced_s: list[float]) -> dict:
    """crawl.engine metrics from the traced iterations (medians); the drift
    compares the last and first untraced iterations, so tracing overhead
    stays out of it."""
    run_s = median(tr.durations("walk.run"))
    rounds = median([s.rounds for s in stats])
    fetches = median([s.fetches for s in stats])
    waits = median([s.waits for s in stats])
    outputs = median([s.outputs for s in stats])
    return {
        "walk.ctor_s": median(tr.durations("walk.ctor")),
        "walk.run_s": run_s,
        "walk.rounds": rounds,
        "walk.steps": median([s.steps for s in stats]),
        "walk.fetches": fetches,
        "walk.waits": waits,
        "walk.cache_hits": median([s.cache_hits for s in stats]),
        "walk.outputs": outputs,
        "walk.round_ms": run_s / rounds * 1e3 if rounds else 0.0,
        "walk.gate_yield": fetches / (fetches + waits) if fetches + waits else 0.0,
        "walk.new_ratio": outputs / fetches if fetches else 0.0,
        "walk.shutdown_s": median(tr.durations("walk.shutdown")),
        "walk.iter_drift": untraced_s[-1] / untraced_s[0] if len(untraced_s) > 1 else 0.0,
    }


# -- crawl-resume -----------------------------------------------------------


class CrawlResume:
    """Both engines in the narrow, write-heavy regime: checkpoint and prune
    every few rounds, shut down mid-crawl, resume, run to the budget."""

    name = "crawl-resume"
    setup_passes = 2
    min_iterations = 1

    def prepare(self, c: Context) -> None:
        from texrex_ray.crawl.policy import CrawlConfig

        self.graph = inputs.webgraph(c.size["hosts"], c.size["seeds"], c.seed, c.cache)
        self.cfg = CrawlConfig()
        self.walk_stats: list = []
        self.prio_stats: list = []

    def _walk(self, c: Context, out_dir: str):
        from texrex_ray.crawl.engine import CrawlEngine

        return c.ops.call(
            "CrawlEngine", CrawlEngine, self.graph, n_walkers=c.size["walkers"],
            n_partitions=1, n_walker_shards=1, seed=c.seed, config=self.cfg,
            out_dir=out_dir,
        )

    def _prio(self, c: Context, out_dir: str):
        from texrex_ray.crawl.priority import PriorityCrawlEngine

        return c.ops.call(
            "PriorityCrawlEngine", PriorityCrawlEngine, self.graph, n_partitions=1,
            budget_per_round=c.size["budget"], config=self.cfg, out_dir=out_dir,
        )

    def _walk_run(self, c: Context, eng, **kw):
        return c.ops.call(
            "CrawlEngine.run", eng.run, max_steps=c.size["steps"],
            checkpoint_every=c.size["every"], keep_checkpoints=c.size["keep"], **kw,
        )

    def _prio_run(self, c: Context, eng, **kw):
        return c.ops.call(
            "PriorityCrawlEngine.run", eng.run, max_fetches=c.size["fetches"],
            checkpoint_every=c.size["every"], keep_checkpoints=c.size["keep"], **kw,
        )

    def setup_pass(self, c: Context, k: int) -> None:
        # both engines: without the priority engine here, the first
        # measured iteration pays its first-use costs (about a second)
        eng = self._walk(c, c.fresh(f"setup{k}-walk"))
        self._walk_run(c, eng, max_rounds=2)
        c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        pe = self._prio(c, c.fresh(f"setup{k}-prio"))
        self._prio_run(c, pe, max_rounds=2)
        c.ops.call("PriorityCrawlEngine.shutdown", pe.shutdown)

    def _walk_outcome(self, eng) -> dict:
        return {"order": _digest(eng.visit_order()), "seen": _digest(sorted(eng.url_seen()))}

    def _prio_outcome(self, eng, out_dir: str) -> dict:
        return {"order": _digest(eng.visit_order()), "seen": _digest(sorted(_corpus_urls(out_dir)))}

    def reference(self, c: Context) -> None:
        d = c.fresh("ref-walk")
        eng = self._walk(c, d)
        st = self._walk_run(c, eng)
        c.ops.call("CrawlEngine.checkpoint", eng.checkpoint)
        c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        self.ref_walk = self._walk_outcome(eng)
        every = c.size["every"]
        # stop two rounds past a checkpoint half-way through, so resume
        # rolls back and replays those rounds
        self.walk_stop = max(every, st.rounds // 2 // every * every) + 2
        d = c.fresh("ref-prio")
        eng = self._prio(c, d)
        ps = self._prio_run(c, eng)
        c.ops.call("PriorityCrawlEngine.checkpoint", eng.checkpoint)
        c.ops.call("PriorityCrawlEngine.shutdown", eng.shutdown)
        self.ref_prio = self._prio_outcome(eng, d)
        self.prio_stop = max(every, ps.rounds // 2 // every * every) + 2

    def iteration(self, c: Context, k: int) -> int:
        from texrex_ray.crawl.engine import CrawlEngine
        from texrex_ray.crawl.priority import PriorityCrawlEngine

        tr = c.tracer
        wdir, pdir = c.fresh(f"it{k}-walk"), c.fresh(f"it{k}-prio")
        t0 = time.perf_counter()
        with tr.span("walk.ctor"):
            eng = self._walk(c, wdir)
        if tr.enabled:
            timed_method(tr, eng, "checkpoint", "walk.checkpoint")
            timed_method(tr, eng, "prune_checkpoints", "walk.prune")
        with tr.span("walk.run"):
            s1 = self._walk_run(c, eng, max_rounds=self.walk_stop)
        with tr.span("walk.shutdown"):
            c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        with tr.span("walk.resume"):
            eng = c.ops.call("CrawlEngine.resume", CrawlEngine.resume, self.graph, wdir,
                             config=self.cfg)
        at_resume = (eng.round, eng.steps, eng.stats.outputs)
        if tr.enabled:
            timed_method(tr, eng, "checkpoint", "walk.checkpoint")
            timed_method(tr, eng, "prune_checkpoints", "walk.prune")
        with tr.span("walk.run"):
            s2 = self._walk_run(c, eng)
        c.ops.call("CrawlEngine.checkpoint", eng.checkpoint)
        with tr.span("walk.shutdown"):
            c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        steps = eng.steps

        with tr.span("priority.ctor"):
            pe = self._prio(c, pdir)
        if tr.enabled:
            timed_method(tr, pe, "checkpoint", "priority.checkpoint")
        with tr.span("priority.run"):
            p1 = self._prio_run(c, pe, max_rounds=self.prio_stop)
        c.ops.call("PriorityCrawlEngine.shutdown", pe.shutdown)
        with tr.span("priority.resume"):
            pe = c.ops.call("PriorityCrawlEngine.resume", PriorityCrawlEngine.resume,
                            self.graph, pdir, config=self.cfg)
        if tr.enabled:
            timed_method(tr, pe, "checkpoint", "priority.checkpoint")
        with tr.span("priority.run"):
            p2 = self._prio_run(c, pe)
        c.ops.call("PriorityCrawlEngine.checkpoint", pe.checkpoint)
        c.ops.call("PriorityCrawlEngine.shutdown", pe.shutdown)
        fetched = pe.fetched
        c.iter_s.append(time.perf_counter() - t0)

        c.ops.check("walk_resume_equals_uninterrupted",
                    self._walk_outcome(eng) == self.ref_walk)
        c.ops.check("priority_resume_equals_uninterrupted",
                    self._prio_outcome(pe, pdir) == self.ref_prio)
        for d in (wdir, pdir):
            n, ok = _committed(d)
            c.ops.check("retained_checkpoints_committed", n > 0 and n == ok, f"{ok}/{n}")
        if tr.enabled:
            self.walk_stats.append(_walk_legs(s1, s2, at_resume))
            self.prio_stats.append(_sum_stats(p1, p2))
            self.ckpt_bytes = _dir_bytes(max(glob.glob(os.path.join(wdir, "ckpt", "round=*"))))
            self.prio_ckpt_bytes = _dir_bytes(
                max(glob.glob(os.path.join(pdir, "ckpt", "round=*"))))
        return steps + fetched

    def layers(self, c: Context) -> dict:
        tr = c.tracer
        n_it = max(1, len(self.walk_stats))
        m = walk_layers(tr, self.walk_stats, c.untraced_s())
        # two run() legs and two shutdowns per iteration: per-iteration sums
        m["walk.run_s"] = tr.total("walk.run") / n_it
        m["walk.shutdown_s"] = tr.total("walk.shutdown") / n_it
        m["walk.round_ms"] = m["walk.run_s"] / m["walk.rounds"] * 1e3 if m["walk.rounds"] else 0.0
        m["walk.checkpoint_ms"] = median(tr.durations("walk.checkpoint")) * 1e3
        m["walk.prune_ms"] = median(tr.durations("walk.prune")) * 1e3
        m["walk.ckpt_bytes"] = self.ckpt_bytes
        m["walk.resume_s"] = median(tr.durations("walk.resume"))
        ps = self.prio_stats
        run_s = tr.total("priority.run") / n_it
        rounds = median([s.rounds for s in ps])
        m.update({
            "priority.ctor_s": median(tr.durations("priority.ctor")),
            "priority.run_s": run_s,
            "priority.rounds": rounds,
            "priority.fetched": median([s.fetched for s in ps]),
            "priority.failed": median([s.failed for s in ps]),
            "priority.enqueued": median([s.enqueued for s in ps]),
            "priority.round_ms": run_s / rounds * 1e3 if rounds else 0.0,
            "priority.checkpoint_ms": median(tr.durations("priority.checkpoint")) * 1e3,
            "priority.ckpt_bytes": self.prio_ckpt_bytes,
            "priority.resume_s": median(tr.durations("priority.resume")),
        })
        return m


def _walk_legs(a, b, at_resume: tuple[int, int, int]):
    """Work done by the two walk legs around a resume.  ``rounds``,
    ``steps`` and ``outputs`` are cumulative in the engine (restored from
    the checkpoint), the other counters start at zero in each engine."""
    from texrex_ray.crawl.engine import CrawlStats

    r0, s0, o0 = at_resume
    return CrawlStats(
        rounds=a.rounds + b.rounds - r0, steps=a.steps + b.steps - s0,
        outputs=a.outputs + b.outputs - o0, fetches=a.fetches + b.fetches,
        cache_hits=a.cache_hits + b.cache_hits, waits=a.waits + b.waits,
    )


def _sum_stats(a, b):
    """Field-wise sum of the priority engine's per-call stats."""
    out = type(a)()
    for f in ("rounds", "fetched", "failed", "enqueued"):
        setattr(out, f, getattr(a, f) + getattr(b, f))
    return out


# -- corpus-clean -----------------------------------------------------------

COMPACT = ["text_md5", "fp64", "simhash", "badness", "pred_lang", "n_tokens", "valid"]
TENDER = dict(k=100, max_redundancy=200, pair_threshold=5)
STAGES = ("harvest", "clean", "tender", "images")


class CorpusClean:
    """The Ray Data half: harvest, clean, tender pair count and the
    image+caption pipeline over a corpus crawled during setup."""

    name = "corpus-clean"
    # the first pass is cold (Ray Data starts worker processes and imports
    # into them), so the median of three is a warm one
    setup_passes = 3
    # short iterations, so that two fit a run's budget
    min_iterations = 2

    def prepare(self, c: Context) -> None:
        from texrex_ray.crawl.engine import CrawlEngine
        from texrex_ray.crawl.policy import CrawlConfig
        from texrex_ray.pipelines.caption import fixture_path

        s = c.size
        self.graph = inputs.webgraph(s["hosts"], s["seeds"], c.seed, c.cache)
        crawl_dir = c.fresh("crawl")
        eng = c.ops.call(
            "CrawlEngine", CrawlEngine, self.graph, n_walkers=s["walkers"],
            n_partitions=1, n_walker_shards=1, seed=c.seed,
            config=CrawlConfig(collect_images=True), out_dir=crawl_dir,
        )
        c.ops.call("CrawlEngine.run", eng.run, max_steps=s["steps"])
        c.ops.call("CrawlEngine.checkpoint", eng.checkpoint)
        # idle actors would hold CPU slots the Dataset stages need
        c.ops.call("CrawlEngine.shutdown", eng.shutdown)
        self.corpus_files = sorted(glob.glob(os.path.join(crawl_dir, "corpus", "part=*", "*.parquet")))
        docs = inputs.documents(s["docs"], c.seed)
        self.docs_path = os.path.join(c.out, "inputs", "documents.parquet")
        self.tender_path = os.path.join(c.out, "inputs", "tender_documents.parquet")
        os.makedirs(os.path.dirname(self.docs_path), exist_ok=True)
        pq.write_table(docs, self.docs_path, row_group_size=1024)
        pq.write_table(docs.slice(0, s["tender_docs"]), self.tender_path, row_group_size=512)
        self.img_dir = fixture_path(n=s["images"], seed=c.seed, root=os.path.join(c.out, "fixtures"))
        self.n_corpus = sum(pq.read_metadata(f).num_rows for f in self.corpus_files)
        self.n_docs = docs.num_rows
        self.rows_in = {
            "harvest": self.n_corpus,
            "clean": self.n_corpus + self.n_docs,
            "tender": s["tender_docs"],
            "images": s["images"],
        }
        self.spans: dict[str, list[float]] = {k: [] for k in STAGES}
        self.op_rows: dict[str, list[dict]] = {k: [] for k in STAGES}

    # the four pipelines
    def _harvest(self, c: Context, out: str) -> None:
        import ray.data
        from texrex_ray.pipelines.harvest import harvest_images, harvest_to_table

        ds = ray.data.read_parquet(self.corpus_files)
        h = c.ops.call("harvest_images", harvest_images, ds, self.graph.images)
        c.ops.call("harvest_to_table", harvest_to_table, h, out)

    def _clean(self, c: Context, out: str) -> None:
        import ray.data
        from texrex_ray.pipelines.clean_documents import clean_documents

        ds = ray.data.read_parquet(self.corpus_files + [self.docs_path], columns=["text"])
        cl = c.ops.call("clean_documents", clean_documents, ds, minhash_k=64, batch_size=1024)
        c.ops.call("write_parquet", cl.select_columns(COMPACT).write_parquet, out)

    def _tender(self, c: Context, out: str) -> None:
        import ray.data
        from texrex_ray.dedup.tender import count_pairs, minhash_shingles, shingle_pairs

        ds = ray.data.read_parquet(self.tender_path, columns=["doc_id", "text", "n_chars"])
        n = self.rows_in["tender"]
        sh = c.ops.call("minhash_shingles", minhash_shingles, ds, k=TENDER["k"])
        pairs = c.ops.call("shingle_pairs", shingle_pairs, sh,
                           max_redundancy=TENDER["max_redundancy"],
                           expected_rows=n * TENDER["k"])
        counted = c.ops.call("count_pairs", count_pairs, pairs,
                             pair_threshold=TENDER["pair_threshold"])
        c.ops.call("write_parquet", counted.write_parquet, out)

    def _images(self, c: Context, out: str) -> None:
        import ray.data
        from texrex_ray.pipelines.caption import image_caption_pipeline

        ds = ray.data.read_parquet(os.path.join(self.img_dir, "images.parquet"))
        res = c.ops.call("image_caption_pipeline", image_caption_pipeline, ds, batch_size=64)
        c.ops.call("write_parquet", res.write_parquet, out)

    def setup_pass(self, c: Context, k: int) -> None:
        # one whole warm iteration: slices would leave setup_s mostly Ray
        # start-up, whose run-to-run spread is the widest of any phase
        for st in STAGES:
            getattr(self, f"_{st}")(c, c.fresh(f"setup{k}-{st}"))

    def _outcome(self, d: str) -> dict:
        """Digests of the four committed outputs (order-free)."""
        from texrex_ray.sources.lance_io import table_format

        hp = os.path.join(d, "harvest")
        if table_format(hp) == "lance":
            import lance

            h = lance.dataset(hp).to_table(columns=["image_id"])
        else:
            h = pq.read_table(hp, columns=["image_id"])
        cl = pq.read_table(os.path.join(d, "clean"))
        te = pq.read_table(os.path.join(d, "tender"))
        im = pq.read_table(os.path.join(d, "images"), columns=["image_id", "caption"])
        return {
            "harvest": (h.num_rows, _digest(sorted(h["image_id"].to_pylist()))),
            "clean": (cl.num_rows, _clean_digest(cl)),
            "tender": (te.num_rows, _digest(sorted(zip(
                *(te[n].to_pylist() for n in ("id_small", "id_big", "n_shared")))))),
            "images": (im.num_rows, _digest(sorted(zip(im["image_id"].to_pylist(),
                                                      im["caption"].to_pylist())))),
        }

    def _run_all(self, c: Context, d: str, traced: bool) -> None:
        for st in STAGES:
            c.stats.take()  # drop summaries of reads done outside a stage
            t0 = time.perf_counter()
            with c.tracer.span(f"{st}.s"):
                getattr(self, f"_{st}")(c, os.path.join(d, st))
            if traced:
                self.spans[st].append(time.perf_counter() - t0)
                self.op_rows[st].append(c.stats.take())

    def reference(self, c: Context) -> None:
        """Expected outputs computed in process, without Ray."""
        from texrex_ray.functions.hashing import doc_id_for_url
        from texrex_ray.pipelines.caption import caption_clean_stage
        from texrex_ray.sources.profiles import default_profiles
        from texrex_ray.stages import textchain as tc

        # clean: the textchain functions applied to the same rows
        t = pa.concat_tables(
            [pq.read_table(f, columns=["text"]) for f in self.corpus_files + [self.docs_path]]
        )
        t = tc.quality(tc.tokenize_stage(tc.normalize(tc.secondpass(t))))
        t = tc.Assessor(default_profiles(), threshold=5.0)(t)
        t = tc.drop_tokens(tc.fingerprints(t, k=64, ngram=5)).select(COMPACT)
        # images: survivors are the first image_id per phash, captions the
        # caption stage applied in process
        src = pq.read_table(os.path.join(self.img_dir, "images.parquet"),
                            columns=["image_id", "caption", "phash"])
        first: dict[int, str] = {}
        for iid, ph in sorted(zip(src["image_id"].to_pylist(), src["phash"].to_pylist())):
            first.setdefault(ph, iid)
        keep = set(first.values())
        cap = caption_clean_stage(src.select(["image_id", "caption"]))
        images = sorted((i, cp) for i, cp in zip(cap["image_id"].to_pylist(),
                                                 cap["caption"].to_pylist()) if i in keep)
        # harvest: one row per distinct referenced src the image store
        # serves, its id the md5 of the src
        srcs = set()
        for f in self.corpus_files:
            for lst in pq.read_table(f, columns=["img_srcs"])["img_srcs"].to_pylist():
                srcs.update(s for s in lst or () if s in self.graph.images)
        harvest = sorted(doc_id_for_url(s) for s in srcs)
        pairs = tender_reference(pq.read_table(self.tender_path), **TENDER)
        # a selection without near-duplicates would make the tender check vacuous
        c.ops.check("tender_reference_has_pairs", bool(pairs))
        self.want = {
            "clean": (t.num_rows, _clean_digest(t)),
            "images": (len(images), _digest(images)),
            "harvest": (len(harvest), _digest(harvest)),
            "tender": (len(pairs), _digest(pairs)),
        }

    def _check_pixels(self, c: Context, d: str) -> None:
        from texrex_ray.stages.images import verify_against_expected

        out = pq.read_table(os.path.join(d, "images"), columns=["image_id", "bytes", "fmt"])
        exp = pq.read_table(os.path.join(self.img_dir, "images_expected.parquet"))
        expected = {i: (p, w, h) for i, p, w, h in
                    zip(*(exp[n].to_pylist() for n in ("image_id", "pixels", "w", "h")))}
        ok = verify_against_expected(out, expected)["pixel_ok"].to_pylist()
        c.ops.check("images_psnr_40db", all(ok), f"{ok.count(False)} of {len(ok)} rows")

    def iteration(self, c: Context, k: int) -> int:
        d = c.fresh(f"it{k}")
        t0 = time.perf_counter()
        self._run_all(c, d, traced=c.tracer.enabled)
        c.iter_s.append(time.perf_counter() - t0)
        got = self._outcome(d)
        for st, check in (("clean", "clean_equals_inprocess_textchain"),
                          ("images", "images_survivors_and_captions"),
                          ("harvest", "harvest_ids_equal_distinct_srcs"),
                          ("tender", "tender_pairs_equal_inprocess_count")):
            c.ops.check(check, got[st] == self.want[st],
                        f"{got[st][0]} vs {self.want[st][0]} rows")
        self._check_pixels(c, d)
        if c.tracer.enabled:
            self.out_rows = {st: got[st][0] for st in STAGES}
        return sum(self.rows_in.values())

    def layers(self, c: Context) -> dict:
        m: dict = {}
        sp = {st: median(self.spans[st]) for st in STAGES}
        rows = self.out_rows
        m.update({
            "harvest.s": sp["harvest"], "harvest.rows": rows["harvest"],
            "harvest.rows_per_s": rows["harvest"] / sp["harvest"] if sp["harvest"] else 0.0,
            "clean.s": sp["clean"], "clean.rows": self.rows_in["clean"],
            "clean.rows_per_s": self.rows_in["clean"] / sp["clean"] if sp["clean"] else 0.0,
            "tender.s": sp["tender"], "tender.pairs": rows["tender"],
            "images.s": sp["images"], "images.rows_in": self.rows_in["images"],
            "images.rows_out": rows["images"],
        })
        self.op_table: dict = {}
        for st in STAGES:
            per_it = self.op_rows[st]
            agg = {
                "wall_s": median([sum(o["wall_s"] for o in ops) for ops in per_it]),
                "cpu_s": median([sum(o["cpu_s"] for o in ops) for ops in per_it]),
                "tasks": median([sum(o["tasks"] for o in ops) for ops in per_it]),
                "bytes_out_mb": median([sum(o["bytes_out"] for o in ops) for ops in per_it]) / (1 << 20),
            }
            agg["coverage"] = agg["wall_s"] / sp[st] if sp[st] else 0.0
            for key, v in agg.items():
                m[f"op.{st}.{key}"] = v
            self.op_table[st] = {
                "span_s": sp[st],
                "operators": per_it[-1] if per_it else [],
                "accounted": abs(agg["coverage"] - 1.0) <= 0.15,
            }
        return m


def tender_reference(docs: pa.Table, k: int, max_redundancy: int,
                     pair_threshold: int) -> list[tuple[int, int, int]]:
    """The tender pair count in process, without Ray: the same Rabin
    minhash rows ``minhash_shingles`` emits, grouped per shingle value;
    each group of 2 to ``max_redundancy - 1`` rows pairs its rows smaller
    (n_chars, doc_id) first; pairs sharing at least ``pair_threshold`` rows
    are kept.  Sorted (id_small, id_big, n_shared) rows."""
    from collections import Counter

    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE

    toks = [LATIN_TOKEN_RE.findall((s or "").lower()) for s in docs["text"].to_pylist()]
    sig, has_fp = rabin_minhash_signatures(toks, k=k, n=5)
    keys = list(zip(docs["n_chars"].to_pylist(), docs["doc_id"].to_pylist()))
    groups: dict[int, list[tuple[int, int]]] = {}
    for i in has_fp.nonzero()[0]:
        for v in sig[i].tolist():
            groups.setdefault(v, []).append(keys[i])
    shared: Counter = Counter()
    for g in groups.values():
        if not 2 <= len(g) < max_redundancy:
            continue
        g.sort()
        for a, x in enumerate(g):
            for y in g[a + 1:]:
                if x < y:
                    shared[x[1], y[1]] += 1
    return sorted((a, b, n) for (a, b), n in shared.items() if n >= pair_threshold)


def _clean_digest(t: pa.Table) -> str:
    cols = [t[n].to_pylist() for n in COMPACT]
    bi = COMPACT.index("badness")
    rows = []
    for r in zip(*cols):
        r = list(r)
        r[bi] = round(r[bi], 9) if r[bi] is not None else None
        rows.append(tuple(r))
    return _digest(sorted(rows, key=repr))


WORKLOADS = {w.name: w for w in (CrawlWide, CrawlResume, CorpusClean)}
