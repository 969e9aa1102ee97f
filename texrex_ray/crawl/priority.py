"""Priority-frontier crawler — the north-star's degree-biased scheduler.

A second scheduling mode beside the ClaraX-faithful random walk
(``crawl/engine.py``): each frontier partition (hash(host) % P) holds a
priority queue of discovered URLs, keyed by

    (-host_in_degree_at_discovery, discovered_round, url)

so hosts observed more often as link targets are crawled first
(degree-biased host sampling), with FIFO/URL tie-breaks for determinism.
Because every link to a host routes to the host's partition, the degree
counters are exact without any cross-partition traffic.

A round:
1. every partition ``peek``s its politeness-eligible top candidates
   (≤ one per host, robots-gated);
2. the driver merges candidates GLOBALLY and selects the top ``budget`` —
   this makes the schedule independent of the partition count (tested);
3. selected URLs are fetched inside their partitions (pages resident,
   Bloom first-wins output, corpus buffering) and extracted links are
   routed back by host-partition and enqueued.

URL-seen here gates *enqueueing* (a priority crawler visits each URL at
most once), unlike the walker where the Bloom gates output only.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field

import pyarrow as pa
import ray

from texrex_ray.crawl.fetcher import fetch_parse
from texrex_ray.crawl.partition import PartitionCore
from texrex_ray.crawl.policy import CrawlConfig
from texrex_ray.crawl.shell import EngineShell, partition_of
from texrex_ray.functions.urlkit import host_of
from texrex_ray.sources.webgraph import WebGraph


@dataclass
class PriorityStats:
    rounds: int = 0
    fetched: int = 0
    failed: int = 0
    enqueued: int = 0
    elapsed_sec: float = 0.0
    urls_per_sec: float = 0.0
    partition_metrics: dict = field(default_factory=dict)


class PriorityPartition(PartitionCore):
    """One frontier partition's priority heap on top of the shared
    partition state."""

    def __init__(
        self,
        part_id: int,
        robots_map: dict,
        pages,
        cfg: CrawlConfig,
        host_scores: dict | None = None,
    ):
        super().__init__(part_id, robots_map, pages, cfg)
        # static external priority bias per host (e.g. PageRank from a prior
        # crawl); added to the live in-degree so rank dominates when large
        self.host_bias = host_scores or {}
        self.heap: list[tuple[int, int, str]] = []  # (-degree, round, url)
        self.host_degree: Counter = Counter()

    def enqueue(self, links: list[tuple[str, int]]) -> int:
        """(url, discovered_round) → frontier; returns #accepted.

        Degree counts every observation; the URL enters the heap only on
        first sight (Bloom-gated — the 'seen' set covers enqueued+fetched).
        """
        added = 0
        urls = [u for u, _ in links]
        for h in (host_of(u) for u in urls):
            self.host_degree[h] += 1
        fresh = self.add_if_new(urls)
        for (url, rnd), new in zip(links, fresh):
            if new:
                h = host_of(url)
                heapq.heappush(
                    self.heap,
                    (-(self.host_bias.get(h, 0) + self.host_degree[h]), rnd, url),
                )
                added += 1
        self.metrics["enqueued"] += added
        return added

    def peek(self, n: int, now: int) -> list[tuple[int, int, str]]:
        """Up to n politeness-eligible candidates (≤1 per host), WITHOUT
        removing them; robots-disallowed URLs are dropped permanently."""
        out: list[tuple[int, int, str]] = []
        skipped: list[tuple[int, int, str]] = []
        hosts_used: set[str] = set()
        while self.heap and len(out) < n:
            item = heapq.heappop(self.heap)
            _negd, _rnd, url = item
            host = host_of(url)
            w = self.gate(url, host, now)
            if w < 0:
                continue
            if w > 0 or host in hosts_used:
                skipped.append(item)
                continue
            hosts_used.add(host)
            out.append(item)
        for item in out + skipped:
            heapq.heappush(self.heap, item)
        return out

    def fetch_selected(self, items: list[tuple[int, int, str]], now: int) -> list[dict]:
        """Remove+fetch the driver-selected items; returns results with links."""
        chosen = set(items)
        self.heap = [it for it in self.heap if tuple(it) not in chosen]
        heapq.heapify(self.heap)
        results = []
        for _negd, rnd, url in sorted(items, key=lambda it: (it[0], it[1], it[2])):
            host = host_of(url)
            self.pm.retrieved(url, now)
            fr = fetch_parse(self.pages, url, self.cfg)
            if fr.ok:
                self.metrics["fetched"] += 1
                self.corpus_buf.append(
                    {
                        "url": url, "final_url": fr.final_url, "host": host,
                        "status": fr.status, "charset": fr.charset,
                        "title": fr.title, "text": "\n".join(fr.divs),
                        "n_divs": len(fr.divs), "links": fr.links,
                        "round": now, "walker_id": -1, "action": "priority",
                        "raw_len": fr.raw_len,
                    }
                )
            else:
                self.metrics["failed"] += 1
            results.append(
                {"url": url, "ok": fr.ok, "links": fr.links if fr.ok else []}
            )
        return results

    def frontier_size(self) -> int:
        return len(self.heap)

    def host_frontier_load(self) -> dict:
        """host → #frontier entries (the heap-memory skew signal)."""
        c: Counter = Counter(host_of(u) for _, _, u in self.heap)
        return dict(c)

    def export_hosts(self, hosts: list[str]) -> dict:
        hs = set(hosts)
        mine = [it for it in self.heap if host_of(it[2]) in hs]
        self.heap = [it for it in self.heap if host_of(it[2]) not in hs]
        heapq.heapify(self.heap)
        return {
            **super().export_hosts(hosts),
            "heap": mine,
            "deg": {h: self.host_degree.pop(h) for h in hosts if h in self.host_degree},
            "bias": {h: self.host_bias[h] for h in hosts if h in self.host_bias},
        }

    def import_hosts(self, state: dict) -> None:
        super().import_hosts(state)
        for it in state["heap"]:
            heapq.heappush(self.heap, tuple(it))
        self.host_degree.update(state["deg"])
        self.host_bias.update(state["bias"])

    def _state(self) -> dict:
        return {
            **super()._state(),
            "heap": list(self.heap),
            "host_degree": dict(self.host_degree),
            "host_bias": dict(self.host_bias),
        }

    def _load(self, snap: dict) -> None:
        super()._load(snap)
        self.heap = [tuple(it) for it in snap["heap"]]
        heapq.heapify(self.heap)
        self.host_degree = Counter(snap["host_degree"])
        self.host_bias = dict(snap["host_bias"])


PriorityFrontierActor = ray.remote(PriorityPartition)


class PriorityCrawlEngine(EngineShell):
    """Round-based degree-biased BFS-style crawler over the priority frontier."""

    VISIT_COLUMNS = [("round", pa.int64()), ("url", pa.string()), ("host", pa.string())]

    def __init__(
        self,
        graph: WebGraph,
        *,
        n_partitions: int = 4,
        budget_per_round: int = 64,
        config: CrawlConfig | None = None,
        host_scores: dict | None = None,
        out_dir: str | None = None,
    ):
        super().__init__(graph, config, n_partitions, out_dir)
        self.budget = budget_per_round
        self.workers = self.parts = [
            PriorityFrontierActor.remote(
                p, graph.robots, self.pages_ref, self.cfg, host_scores
            )
            for p in range(n_partitions)
        ]
        self.fetched = 0  # cumulative across resume (the max_fetches budget)
        self._route_enqueue([(u, 0) for u in graph.seeds])

    def _route_enqueue(self, links: list[tuple[str, int]]) -> int:
        if not links:
            return 0
        hosts = [host_of(u) for u, _ in links]
        parts = partition_of(hosts, self.n_partitions, self.salt)
        by_part: dict[int, list[tuple[str, int]]] = {}
        for (u, r), p in zip(links, parts.tolist()):
            by_part.setdefault(p, []).append((u, r))
        # deterministic enqueue order within each partition
        futs = [
            self.parts[p].enqueue.remote(sorted(items))
            for p, items in by_part.items()
        ]
        return sum(ray.get(futs))

    def run(
        self,
        max_fetches: int,
        max_rounds: int | None = None,
        checkpoint_every: int | None = None,
        keep_checkpoints: int | None = None,
    ) -> PriorityStats:
        """``max_fetches`` is the TOTAL budget including pre-resume fetches
        (the CrawlEngine ``max_steps`` convention), so a resumed run
        finishes the same crawl."""
        stats = PriorityStats()
        start_fetched = self.fetched
        start_round = self.round
        t0 = time.perf_counter()
        while self.fetched < max_fetches:
            if max_rounds is not None and self.round >= max_rounds:
                break
            now = self.round
            self.round += 1
            peeks = self._each("peek", self.budget, now)
            merged: list[tuple[int, tuple[int, int, str]]] = []
            for pid, items in enumerate(peeks):
                merged.extend((pid, tuple(it)) for it in items)
            if not merged:
                if sum(self._each("frontier_size")) == 0:
                    break
                # everything politeness-deferred this round — still fall
                # through to the checkpoint-cadence check below (a streak
                # of deferred rounds must not stretch the commit window)
            else:
                merged.sort(key=lambda x: x[1])  # global priority order
                selected = merged[: self.budget]
                by_part: dict[int, list[tuple[int, int, str]]] = {}
                for pid, item in selected:
                    by_part.setdefault(pid, []).append(item)
                res_futs = {
                    p: self.parts[p].fetch_selected.remote(items, now)
                    for p, items in by_part.items()
                }
                new_links: list[tuple[str, int]] = []
                for p in sorted(by_part):
                    for r in ray.get(res_futs[p]):
                        if r["ok"]:
                            self.fetched += 1
                            self.visit_rows.append((now, r["url"], host_of(r["url"])))
                        else:
                            stats.failed += 1
                        new_links.extend((u, self.round) for u in r["links"])
                stats.enqueued += self._route_enqueue(sorted(set(new_links)))
            self._checkpoint_if_due(checkpoint_every, keep_checkpoints)
        stats.fetched = self.fetched - start_fetched
        stats.rounds = self.round - start_round
        return self._end_run(stats, t0, stats.fetched)

    def rebalance_hot_partitions(
        self, hot_ratio: float = 2.0, max_hosts: int = 8
    ) -> dict[str, int]:
        """Split hot frontier partitions (heap size > ``hot_ratio`` × mean)
        by moving their heaviest hosts, heap entries and in-degree counters
        included, to the currently lightest partition (``_move_hosts``).
        The SCHEDULE is invariant: candidate selection is a global merge
        with per-host dedup, and hosts live in exactly one partition, so
        where a host's frontier sits affects memory and fetch placement,
        never visit order (tested).  Returns {host: new_partition}."""
        sizes = self._each("frontier_size")
        mean = sum(sizes) / max(1, len(sizes))
        moved: dict[str, int] = {}
        if mean <= 0:
            return moved
        for src in sorted(range(self.n_partitions), key=lambda p: -sizes[p]):
            if sizes[src] <= hot_ratio * mean:
                continue
            dst = min(range(self.n_partitions), key=lambda p: sizes[p])
            if dst == src:
                continue
            load = ray.get(self.parts[src].host_frontier_load.remote())
            excess = sizes[src] - int(mean)
            hosts: list[str] = []
            for h, cnt in sorted(load.items(), key=lambda kv: (-kv[1], kv[0])):
                if excess <= 0 or len(hosts) >= max_hosts:
                    break
                hosts.append(h)
                excess -= cnt
            if not hosts:
                continue
            self._move_hosts(src, {h: dst for h in hosts})
            n_moved = sum(load[h] for h in hosts)
            sizes[src] -= n_moved
            sizes[dst] += n_moved
            moved.update((h, dst) for h in hosts)
        return moved

    # -- checkpoint hooks (the protocol lives in the shell) ----------------

    def _meta(self) -> dict:
        return {"fetched": self.fetched, "n_partitions": self.n_partitions,
                "budget": self.budget}

    def _lineage(self) -> list[dict]:
        sizes = self._each("frontier_size")
        return [{**e, "frontier_size": n} for e, n in zip(super()._lineage(), sizes)]

    @classmethod
    def _layout(cls, meta: dict) -> dict:
        return {"n_partitions": meta["n_partitions"], "budget_per_round": meta["budget"]}

    def _restore_counters(self, meta: dict) -> None:
        self.fetched = meta["fetched"]
