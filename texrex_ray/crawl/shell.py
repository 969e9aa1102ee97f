"""The driver code both crawl engines share.

A crawl engine is a driver object over Ray actors: frontier partitions
(``parts``, one per ``hash(host) % P``) and, for the walk engine, walker
shards (``shards``).  ``EngineShell`` holds everything the driver does that
does not depend on the scheduler: the broadcast pages transport, the round
counter and salt map, the unflushed visit rows, output flushes, the
checkpoint cadence, checkpoint / prune / resume through
``state/commit.py``, the readers (``visit_order``, ``collect_corpus``),
moving hosts between partitions, and shutdown.

``CrawlEngine`` (``crawl/engine.py``) and ``PriorityCrawlEngine``
(``crawl/priority.py``) subclass it.  Each keeps its round loop, its
hot-partition policy and its ``VISIT_COLUMNS``, and defines the hooks
for its own ``meta.json`` fields: ``_meta`` (the fields it writes),
``_layout`` (a classmethod: the constructor arguments that rebuild the
stored actor layout) and ``_restore_counters``.  ``_lineage`` (each
partition's lineage entry) and ``_visit_view`` have defaults.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import ray

from texrex_ray.crawl.fetcher import ArrowPagesTransport
from texrex_ray.crawl.policy import CrawlConfig
from texrex_ray.functions.hashing import stable_hash64
from texrex_ray.sources.webgraph import WebGraph
from texrex_ray.state import commit


def partition_of(
    hosts: list[str], n_partitions: int, salt: dict[str, int] | None = None
) -> np.ndarray:
    """hash(host) % P, with explicit per-host overrides (the salt map used
    to split/relocate hot shards — north-rule skew handling).

    The hash is blake2b-based (``stable_hash64``): routing must survive a
    resume across library upgrades, or per-host politeness state and Bloom
    segments silently end up on the wrong partition."""
    parts = (stable_hash64(hosts, seed=7) % np.uint64(n_partitions)).astype(np.int64)
    if salt:
        for i, h in enumerate(hosts):
            ov = salt.get(h)
            if ov is not None:
                parts[i] = ov
    return parts


class EngineShell:
    # visit-log columns, in the order of the driver's visit_rows tuples
    VISIT_COLUMNS: list[tuple[str, pa.DataType]]

    def __init__(self, graph: WebGraph, config: CrawlConfig | None,
                 n_partitions: int, out_dir: str | None, transport=None):
        self.graph = graph
        self.cfg = config or CrawlConfig()
        self.n_partitions = n_partitions
        self.out_dir = out_dir
        # pages go once to every actor via this broadcast ref
        self.pages_ref = ray.put(
            transport if transport is not None else ArrowPagesTransport.from_graph(graph)
        )
        self.workers: list = []  # every actor the engine started
        self.parts: list = []    # partition k = the actor holding hash(host) % P == k
        self.shards: list = []   # walker shards (the priority engine has none)
        self.round = 0
        self.salt: dict[str, int] = {}  # host → partition overrides
        # UNFLUSHED visit rows only.  With out_dir set, _flush_outputs
        # truncates this list at every checkpoint, so driver memory is
        # O(checkpoint window), not O(crawl) — the 10^10-URL north rule's
        # design point.  The URL-seen set lives in the partition actors and
        # on disk (corpus parquet); the driver holds no per-URL state.
        self.visit_rows: list[tuple] = []
        self._visits_flushed_rows = 0  # rows already in visits parquet
        self._corpus_local: list[dict] = []  # rows drained by collect_corpus

    def _each(self, method: str, *args, on: list | None = None) -> list:
        """Call ``method(*args)`` on every partition (or on each actor in
        ``on``) and wait for all the results: one driver barrier."""
        actors = self.parts if on is None else on
        return ray.get([getattr(a, method).remote(*args) for a in actors])

    # -- run helpers (each engine's run() owns its round loop) -------------

    def _checkpoint_if_due(self, every: int | None, keep: int | None) -> None:
        if every and self.out_dir and self.round % every == 0:
            self.checkpoint()
            if keep:
                self.prune_checkpoints(keep)

    def _end_run(self, stats, t0: float, n_items: int):
        stats.elapsed_sec = time.perf_counter() - t0
        stats.urls_per_sec = n_items / stats.elapsed_sec if stats.elapsed_sec > 0 else 0.0
        stats.partition_metrics = dict(enumerate(self._each("get_metrics")))
        if self.out_dir:
            self._flush_outputs()
        return stats

    # -- hot-host migration (salted repartition) ---------------------------

    def _move_hosts(self, src: int, dst_of: dict[str, int]) -> None:
        """Move hosts off partition ``src`` (``dst_of``: host → destination).
        Each destination imports the hosts' per-host state exactly, and
        gets ``src``'s URL-seen filter chained as read-only history — once
        per distinct destination: per-host bits cannot leave a filter, and
        a destination without the history would re-output a moved host's
        URLs.  Future links follow the salt map.  One driver barrier."""
        by_dst: dict[int, list[str]] = {}
        for h, d in dst_of.items():
            by_dst.setdefault(d, []).append(h)
        seen = self.parts[src].export_seen.remote()
        ray.get([
            ref for d, hosts in by_dst.items() for ref in (
                self.parts[d].import_hosts.remote(self.parts[src].export_hosts.remote(hosts)),
                self.parts[d].attach_seen_base.remote(seen),
            )
        ])
        self.salt.update(dst_of)

    # -- readers -----------------------------------------------------------

    def visit_order(self) -> list[tuple]:
        """Every visit row in round order, reconstructed from the flushed
        visits parquet plus the in-memory unflushed tail — the driver never
        holds the whole log."""
        flushed = commit.read_visits(self.out_dir, self.VISIT_COLUMNS) if self.out_dir else []
        return self._visit_view(sorted(flushed + self.visit_rows))

    def _visit_view(self, rows: list[tuple]) -> list[tuple]:
        return rows

    def collect_corpus(self) -> list[dict]:
        """Drain corpus rows buffered in the partition actors (accumulates
        driver-side across calls; for tests/small runs — large runs use
        ``flush_corpus`` → per-partition parquet instead)."""
        for rows in self._each("drain_corpus"):
            self._corpus_local.extend(rows)
        return self._corpus_local

    def _corpus_urls(self) -> set[str]:
        """Every URL with a corpus row: flushed to parquet, buffered in a
        partition actor, or drained by ``collect_corpus``."""
        urls = commit.corpus_urls(self.out_dir) if self.out_dir else set()
        for buffered in self._each("buffered_urls"):
            urls.update(buffered)
        urls.update(r["url"] for r in self._corpus_local)
        return urls

    def shutdown(self) -> None:
        """Kill the engine's actors: their processes exit and free the
        memory they hold (pages, walker and partition state, imports).

        With default options an actor holds its CPU only while it is
        being placed, so idle actors do not block later Dataset stages;
        they only keep their memory until killed."""
        for a in self.workers:
            ray.kill(a)
        self.workers, self.shards, self.parts = [], [], []

    # -- checkpoint / resume (protocol: state/commit.py) --------------------

    def _flush_outputs(self) -> None:
        self._visits_flushed_rows += commit.flush_visits(
            self.out_dir, self.round, self._visits_flushed_rows, sorted(self.visit_rows),
            self.VISIT_COLUMNS,
        )
        self.visit_rows = []  # truncate: driver memory stays O(window)
        self._each("flush_corpus", self.out_dir, self.round)

    def checkpoint(self) -> str:
        """Commit every walker shard's and partition's state plus a
        lineage manifest as one checkpoint; returns its directory."""
        assert self.out_dir
        # flush BEFORE snapshotting so restored corpus buffers are empty
        # (no double-write after resume)
        self._flush_outputs()
        shard_blobs = self._each("snapshot_walkers", on=self.shards)
        part_blobs = self._each("snapshot")
        meta = {
            "round": self.round, **self._meta(), "salt": self.salt,
            **commit.run_inputs(self.graph, self.cfg),
        }
        return commit.write_round(
            self.out_dir, self.round, meta, part_blobs, self._lineage(), shard_blobs,
        )

    def _lineage(self) -> list[dict]:
        return [{"metrics": m} for m in self._each("get_metrics")]

    def prune_checkpoints(self, keep_last: int) -> list[str]:
        """Delete all but the newest ``keep_last`` committed checkpoints
        (``commit.prune``): at frontier scale each one carries every
        partition's URL-seen filter, so retention must be bounded.
        Returns the pruned checkpoint paths."""
        assert self.out_dir
        return commit.prune(self.out_dir, keep_last)

    @classmethod
    def resume(cls, graph: WebGraph, out_dir: str, config: CrawlConfig | None = None,
               **kw):
        """Continue from the newest committed checkpoint: orphaned
        post-commit output files are removed and every actor's state is
        restored, so a later ``run`` with the same total budget completes
        the uninterrupted crawl (pinned by tests incl. abrupt actor-kill
        drills).  ``config`` defaults to the stored one; a given config or
        graph that differs from the stored one raises ValueError."""
        ck = commit.latest(out_dir)
        meta = ck.meta
        config = config or CrawlConfig(**meta["config"])
        commit.check_inputs(meta, graph, config)
        commit.remove_orphans(out_dir, meta["round"])
        eng = cls(graph, config=config, out_dir=out_dir, **cls._layout(meta), **kw)
        shard_blobs = ck.blobs("shard", len(eng.shards))
        part_blobs = ck.blobs("part", len(eng.parts))
        # batched: all restores deserialize in parallel
        ray.get([s.restore_walkers.remote(b) for s, b in zip(eng.shards, shard_blobs)]
                + [p.restore.remote(b) for p, b in zip(eng.parts, part_blobs)])
        eng.round = meta["round"]
        eng.salt = dict(meta["salt"])
        eng._visits_flushed_rows = commit.count_visits(out_dir)
        eng._restore_counters(meta)
        return eng
