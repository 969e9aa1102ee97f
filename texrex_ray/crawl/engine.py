"""The distributed crawl engine: ClaraX semantics on sharded Ray actors.

Re-architecture of the reference's single-threaded walker (ref:
trwalkers.pas:858-997, SURVEY.md §3.2) per the north rule:

- **Walker shards** (actor pool): each holds a group of walkers' stacks,
  RNGs and document caches — the walk state.  K walkers is the *logical*
  parallelism and is fixed; shard/partition counts are physical and can
  change without changing any decision (determinism across cluster sizes).
- **Frontier partitions** (actor pool): partition = ``hash(host) % P``;
  each holds the per-host politeness + robots state and its Bloom URL-seen
  segment, so first-wins races never span actors.  Gate decisions within a
  partition process proposals in walker-id order → deterministic under any
  physical layout.
- **Fetch** runs as Ray tasks over URL batches against the broadcast
  (``ray.put``) synthetic web graph; fetch+strip+scope per URL.
- The round loop: propose → gate (politeness/robots) → fetch → deliver
  links / record output (Bloom first-wins) → next round.  One round ≡ one
  virtual second.  The single-walker projection reproduces the sequential
  oracle's visit order and URL-seen set exactly (tested).
- **Checkpoint/resume**: every ``checkpoint_every`` rounds each state
  holder snapshots (walker stacks+RNG, politeness, URL-seen filter,
  metrics) into one committed checkpoint; corpus and visit-log rows flush
  to parquet per checkpoint window.  Layout and protocol:
  ``state/commit.py``, shared with the priority engine.

At real-web scale the fetch stage becomes an HTTP actor pool with
sessions (same interface); everything else is unchanged.
"""

from __future__ import annotations

import pickle
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray

from texrex_ray.crawl.fetcher import fetch_parse
from texrex_ray.crawl.partition import PartitionCore
from texrex_ray.crawl.policy import CrawlConfig, Walker, split_seeds
from texrex_ray.functions.hashing import stable_hash64
from texrex_ray.functions.urlkit import host_of
from texrex_ray.sources.webgraph import WebGraph
from texrex_ray.state import commit

# visit-log columns, in the order of the driver's visit_rows tuples
VISIT_COLUMNS = [
    ("round", pa.int64()), ("walker_id", pa.int64()), ("url", pa.string()),
    ("host", pa.string()), ("action", pa.string()), ("cached", pa.bool_()),
]


@dataclass
class CrawlStats:
    steps: int = 0
    outputs: int = 0
    rounds: int = 0
    fetches: int = 0
    cache_hits: int = 0
    waits: int = 0
    disallowed: int = 0
    failed: int = 0
    elapsed_sec: float = 0.0
    urls_per_sec: float = 0.0
    partition_metrics: dict = field(default_factory=dict)


@ray.remote
class WalkerShardActor:
    """A group of walkers; propose/deliver in walker-id order."""

    def __init__(self, walker_ids: list[int], seeds_by_walker: dict[int, list[str]],
                 seed: int, cfg: CrawlConfig):
        self.cfg = cfg
        self.walkers = {
            wid: Walker(wid, seeds_by_walker[wid], seed, cfg) for wid in walker_ids
        }

    def propose_all(self) -> list[tuple[int, str, str, bool]]:
        """[(walker_id, url, action, is_cache_hit)] for live walkers.

        Cache hits (ref: trwalkers.pas:882-894 — cache hit = MakeStep only,
        no fetch) are only FLAGGED here; the step is applied when the driver
        acks with verdict "cache" in resolve(), so walker state never runs
        ahead of driver-recorded rounds (checkpoint consistency).
        """
        out = []
        for wid in sorted(self.walkers):
            w = self.walkers[wid]
            prop = w.propose()
            if prop is None:
                continue
            url, action = prop
            out.append((wid, url, action, w.cached_links(url) is not None))
        return out

    def resolve(
        self,
        results: list[tuple[int, str]],
        link_payloads: list | None = None,
    ) -> None:
        """results: (walker_id, verdict) — verdict ∈ ok|fail|wait|cache.

        Fetch verdicts + link lists arrive via ``link_payloads`` — the
        per-shard ``(wid, verdict, links)`` outputs of ``gate_fetch``,
        shipped actor→actor through the object store so the driver never
        serializes (or even waits on) them: the engine dispatches this
        call BEFORE consuming its own meta copy, which takes the whole
        verdict-routing hop off the round's critical path.  ``results``
        carries only the driver-acked cache hits (invariant: cache steps
        are recorded by the driver).  Per-walker deliveries are
        independent (one verdict per walker per round; each walker owns
        its RNG), so the order payloads apply in cannot affect the walk.
        """
        for payload in link_payloads or []:
            if isinstance(payload, ray.ObjectRef):
                # refs nested in a list are not auto-resolved; fetch from
                # the LOCAL object store (plasma), not through the driver
                payload = ray.get(payload)
            for wid, verdict, links in payload:
                w = self.walkers[wid]
                if verdict == "ok":
                    w.deliver(True, links)
                elif verdict == "fail":
                    w.deliver(False, None)
                # "wait": leave pending
        for wid, verdict in results:
            # the driver routes ONLY cache acks here (fetch verdicts come
            # through the payloads above); anything else would risk a
            # double delivery, so reject it loudly
            if verdict != "cache":
                raise ValueError(
                    f"resolve(): unexpected driver verdict {verdict!r} for "
                    f"walker {wid} — fetch verdicts must ride gate_fetch's "
                    "per-shard payloads"
                )
            w = self.walkers[wid]
            w.deliver(True, w.cached_links(w.pending[0]))

    def resolve_and_propose(
        self,
        results: list[tuple[int, str]],
        link_payloads: list[list[tuple[int, list[str]]]] | None = None,
    ) -> list[tuple[int, str, str, bool]]:
        """Fused resolve + next-round propose: one barrier per shard per
        round instead of two."""
        self.resolve(results, link_payloads)
        return self.propose_all()

    def alive(self) -> int:
        return sum(0 if w.exhausted else 1 for w in self.walkers.values())

    # -- texcomm control verbs (ref: trtexrex.pas:548-798) ----------------

    def add_walkers(self, seeds_by_walker: dict[int, list[str]], seed: int) -> int:
        """Runtime walker addition (texcomm thread-add analogue): new
        walkers join this shard and start proposing next round."""
        for wid, seeds in seeds_by_walker.items():
            self.walkers[wid] = Walker(wid, seeds, seed, self.cfg)
        return len(self.walkers)

    def remove_walkers(self, walker_ids: list[int]) -> int:
        """Runtime walker removal (thread-remove): the walker is marked
        exhausted — it stops proposing but its history stays snapshotable."""
        n = 0
        for wid in walker_ids:
            w = self.walkers.get(wid)
            if w is not None and not w.exhausted:
                w.exhausted = True
                w.pending = None
                n += 1
        return n

    def reconfigure(self, changes: dict) -> None:
        """Apply config updates to future decisions (texcomm queue-resize
        analogue: e.g. max_links_per_step, max_cache, jump probability)."""
        for k, v in changes.items():
            setattr(self.cfg, k, v)

    def snapshot(self) -> bytes:
        return pickle.dumps({wid: w.snapshot() for wid, w in self.walkers.items()})

    def restore(self, blob: bytes) -> None:
        snaps = pickle.loads(blob)
        self.walkers = {
            wid: Walker.restore(s, self.cfg) for wid, s in snaps.items()
        }


class WalkPartition(PartitionCore):
    """Politeness + robots + URL-seen + fetch for one host-hash partition.

    The whole per-URL sequence — robots refresh, politeness gate, fetch,
    URL-seen first-wins output gating, corpus-row buffering — runs inside
    ONE actor call per partition per round (``gate_fetch``), so a round
    costs two driver barriers total (propose + gate_fetch) instead of
    five.  Items are processed in (walker_id, url) order → identical
    decisions under any physical layout.
    """

    def __init__(self, part_id: int, robots_map: dict[str, str | None],
                 pages, cfg: CrawlConfig):
        super().__init__(part_id, robots_map, pages, cfg)
        self.host_fetches: Counter = Counter()

    def host_load(self) -> dict[str, int]:
        return dict(self.host_fetches)

    def export_hosts(self, hosts: list[str]) -> dict:
        for h in hosts:
            self.host_fetches.pop(h, None)
        return super().export_hosts(hosts)

    def gate_fetch(self, items: list[tuple[int, str, str]], now: int,
                   n_shards: int = 1):
        """Per (walker_id, url, action), in walker-id order: gate through
        politeness + robots, fetch, URL-seen dedup, buffer corpus rows.
        The round's fetched URLs go to the URL-seen filter in one call;
        first-wins within a batch follows list order, so up to the
        filter's false positives the decisions equal one add per URL in
        (walker_id, url) order, as in ``crawl/oracle.py``.

        Returns ``1 + n_shards`` values (call with
        ``.options(num_returns=1 + n_shards)``): a meta list
        ``(walker_id, verdict ok|fail|wait, is_new_output)`` for the
        driver, then per-walker-shard link payloads
        ``[(walker_id, links)]`` that flow directly to the shard actors
        through the object store — link lists are ~95% of the result bytes
        and the driver never needs them."""
        t0 = time.perf_counter()
        done: list[tuple] = []  # (wid, url, action, host, verdict, fetch result)
        for wid, url, action in sorted(items):
            host = host_of(url)
            w = self.gate(url, host, now)
            if w < 0:
                done.append((wid, url, action, host, "fail", None))
                continue
            if w > 0:
                self.metrics["waits"] += 1
                done.append((wid, url, action, host, "wait", None))
                continue
            if self.cfg.add_random_wait_up_to > 0:
                # extra politeness jitter (ref: AddRandomWaitUpTo at
                # trwalkers.pas:630-644) — deterministic per (url, round) so
                # decisions are identical under any physical layout
                extra = int(
                    stable_hash64([f"{url}|{now}"], seed=13)[0]
                    % np.uint64(self.cfg.add_random_wait_up_to + 1)
                )
                if extra > 0:
                    self.metrics["jitter_waits"] += 1
                    done.append((wid, url, action, host, "wait", None))
                    continue
            self.pm.retrieved(url, now)
            self.metrics["gated_fetches"] += 1
            self.host_fetches[host] += 1
            fr = fetch_parse(self.pages, url, self.cfg)
            if not fr.ok:
                self.metrics["failed_fetches"] += 1
                done.append((wid, url, action, host, "fail", None))
                continue
            done.append((wid, url, action, host, "ok", fr))
        fresh = iter(self.add_if_new([d[1] for d in done if d[4] == "ok"]).tolist())
        meta: list[tuple[int, str, bool]] = []
        shard_links: list[list[tuple[int, list[str]]]] = [[] for _ in range(n_shards)]
        for wid, url, action, host, verdict, fr in done:
            if verdict != "ok":
                meta.append((wid, verdict, False))
                shard_links[wid % n_shards].append((wid, verdict, None))
                continue
            is_new = next(fresh)
            if is_new:
                self.metrics["outputs"] += 1
                row = {
                    "url": url, "final_url": fr.final_url, "host": host,
                    "status": fr.status, "charset": fr.charset,
                    "title": fr.title, "text": "\n".join(fr.divs),
                    "n_divs": len(fr.divs), "links": fr.links,
                    "round": now, "walker_id": wid, "action": action,
                    "raw_len": fr.raw_len,
                }
                if self.cfg.collect_images:
                    # image+caption harvest channel (parallel list columns;
                    # resolved absolute srcs, document order preserved so
                    # downstream first-wins dedup is position-deterministic)
                    row["img_srcs"] = [s for s, _ in fr.images]
                    row["img_caps"] = [c for _, c in fr.images]
                self.corpus_buf.append(row)
            meta.append((wid, "ok", is_new))
            shard_links[wid % n_shards].append((wid, "ok", fr.links))
        self.metrics["gate_ms"] += int((time.perf_counter() - t0) * 1000)
        self.metrics["gate_calls"] += 1
        if n_shards == 1:
            return meta, shard_links[0]
        return (meta, *shard_links)


FrontierPartActor = ray.remote(WalkPartition)


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


class CrawlEngine:
    """Round-based distributed crawl over a synthetic web graph."""

    def __init__(
        self,
        graph: WebGraph,
        *,
        n_walkers: int = 1,
        n_partitions: int = 4,
        n_walker_shards: int | None = None,
        seed: int = 42,
        config: CrawlConfig | None = None,
        out_dir: str | None = None,
        transport=None,
    ):
        from texrex_ray.crawl.fetcher import ArrowPagesTransport

        self.graph = graph
        self.cfg = config or CrawlConfig()
        self.seed = seed
        self.n_walkers = n_walkers
        self.n_partitions = n_partitions
        self.n_walker_shards = n_walker_shards or min(n_walkers, 8)
        self.out_dir = out_dir
        # the network seam: anything with get(url) -> page tuple | None
        # (crawl/fetcher.py Transport protocol).  Default stays the
        # broadcast synthetic-graph dict; a real cluster passes
        # HttpTransport() and the whole engine above this line is
        # unchanged (politeness, robots, Bloom, ordering all pinned by
        # the oracle-fidelity tests).
        self.pages_ref = ray.put(
            transport
            if transport is not None
            else ArrowPagesTransport.from_graph(graph)
        )

        seeds_split = split_seeds(graph.seeds, n_walkers)
        shard_members: dict[int, list[int]] = {s: [] for s in range(self.n_walker_shards)}
        for wid in range(n_walkers):
            shard_members[wid % self.n_walker_shards].append(wid)
        self.shards = [
            WalkerShardActor.remote(
                shard_members[s],
                {wid: seeds_split[wid] for wid in shard_members[s]},
                seed,
                self.cfg,
            )
            for s in range(self.n_walker_shards)
        ]
        # robots maps are small; every partition gets the full dict (a real
        # deployment would slice by host-hash — the lookup key is the same).
        # pages go once via the broadcast ref (deserialized once per actor).
        self.parts = [
            FrontierPartActor.remote(p, graph.robots, self.pages_ref, self.cfg)
            for p in range(self.n_partitions)
        ]
        self.round = 0
        self.steps = 0
        # UNFLUSHED visit rows only: (round, walker, url, host, action,
        # cached).  With out_dir set, _flush_outputs truncates this list at
        # every checkpoint, so driver memory is O(checkpoint window), not
        # O(crawl) — the 10^10-URL north rule's design point.  The URL-seen
        # set lives in the partition actors (Bloom + corpus buffers) and on
        # disk (corpus parquet); the driver holds no per-URL state.
        self.visit_rows: list[tuple] = []
        self.salt: dict[str, int] = {}      # host → partition overrides
        self.stats = CrawlStats()
        self._visits_flushed_rows = 0       # rows already in visits parquet

    def walk_stack_dump(self) -> "pa.Table":
        """Dump remaining walker stacks (ref: trwalkers.pas:984-996 — the
        `.walk` file: url, id, host, epoch, n_links per stack entry)."""
        from texrex_ray.functions.hashing import doc_id_for_url

        rows = []
        for blob in ray.get([s.snapshot.remote() for s in self.shards]):
            for wid, snap in pickle.loads(blob).items():
                for depth, (url, links) in enumerate(snap["stack"]):
                    rows.append((wid, depth, url, doc_id_for_url(url),
                                 host_of(url), self.round, len(links)))
        return pa.table(
            {
                "walker_id": pa.array([r[0] for r in rows], pa.int64()),
                "depth": pa.array([r[1] for r in rows], pa.int64()),
                "url": pa.array([r[2] for r in rows], pa.string()),
                "doc_id": pa.array([r[3] for r in rows], pa.string()),
                "host": pa.array([r[4] for r in rows], pa.string()),
                "round": pa.array([r[5] for r in rows], pa.int64()),
                "n_links": pa.array([r[6] for r in rows], pa.int64()),
            }
        )

    def metrics_table(self) -> "pa.Table":
        """Per-partition crawl metrics (the texcomm/Dash surface, ref:
        trtexrex.pas:801-873) as an Arrow table."""
        ms = ray.get([p.get_metrics.remote() for p in self.parts])
        keys = sorted({k for m in ms for k in m})
        cols = {"partition": pa.array(range(len(ms)), pa.int64())}
        for k in keys:
            cols[k] = pa.array([int(m.get(k, 0)) for m in ms], pa.int64())
        return pa.table(cols)

    # -- texcomm control surface (ref: src/programs/texcomm.pas, server
    # side trtexrex.pas:548-798: dashboard / thread add+remove / queue
    # resize / peek).  The IPC socket becomes plain method calls on the
    # driver-held engine; a remote client would wrap these in a named Ray
    # actor, the transport texcomm's INET socket maps to.

    def control_status(self) -> dict:
        """One dashboard snapshot: progress counters + per-partition and
        walker liveness (texcomm's periodic status line)."""
        alive = sum(ray.get([s.alive.remote() for s in self.shards]))
        ms = ray.get([p.get_metrics.remote() for p in self.parts])
        totals: Counter = Counter()
        for m in ms:
            totals.update(m)
        return {
            "round": self.round,
            "steps": self.steps,
            "walkers_alive": alive,
            "n_partitions": self.n_partitions,
            "n_walker_shards": self.n_walker_shards,
            "outputs": int(totals.get("outputs", 0)),
            "gated_fetches": int(totals.get("gated_fetches", 0)),
            "waits": int(totals.get("waits", 0)),
            "disallowed": int(totals.get("disallowed", 0)),
            "salted_hosts": len(self.salt),
        }

    def peek(self, n: int = 1) -> list[dict]:
        """Most recent processed documents (clipped), newest last."""
        rows: list[dict] = []
        for part_rows in ray.get([p.peek_corpus.remote(n) for p in self.parts]):
            rows.extend(part_rows)
        rows.sort(key=lambda r: (r.get("round", 0), r.get("url", "")))
        return rows[-n:]

    def add_walkers(self, seeds_per_walker: list[list[str]]) -> list[int]:
        """Spawn len(seeds_per_walker) new walkers at runtime, round-robin
        across existing shards; returns their walker ids."""
        new_ids = list(range(self.n_walkers, self.n_walkers + len(seeds_per_walker)))
        by_shard: dict[int, dict[int, list[str]]] = {}
        for wid, seeds in zip(new_ids, seeds_per_walker):
            by_shard.setdefault(wid % self.n_walker_shards, {})[wid] = list(seeds)
        ray.get(
            [
                self.shards[s].add_walkers.remote(m, self.seed)
                for s, m in by_shard.items()
            ]
        )
        self.n_walkers += len(new_ids)
        return new_ids

    def remove_walkers(self, walker_ids: list[int]) -> int:
        """Stop the given walkers after their current round."""
        by_shard: dict[int, list[int]] = {}
        for wid in walker_ids:
            by_shard.setdefault(wid % self.n_walker_shards, []).append(wid)
        return sum(
            ray.get(
                [self.shards[s].remove_walkers.remote(ids) for s, ids in by_shard.items()]
            )
        )

    def reconfigure(self, **changes) -> None:
        """Broadcast config updates to every actor and the driver copy.
        Affects future decisions only (no retroactive state rewrite), like
        texcomm's live queue-resize."""
        for k, v in changes.items():
            if not hasattr(self.cfg, k):
                raise AttributeError(f"unknown CrawlConfig field: {k}")
            setattr(self.cfg, k, v)
        ray.get(
            [a.reconfigure.remote(changes) for a in list(self.shards) + list(self.parts)]
        )

    def shutdown(self) -> None:
        """Kill the engine's actors, releasing their CPU reservations.

        Each actor reserves one CPU; a finished crawl would otherwise starve
        subsequent Dataset stages in the same session."""
        for a in self.shards + self.parts:
            ray.kill(a)
        self.shards, self.parts = [], []

    # -- skew handling -----------------------------------------------------

    def rebalance_hot_partitions(self, hot_ratio: float = 2.0) -> dict[str, int]:
        """Salted repartition of hot frontier shards (host granularity).

        Measures per-host fetch load, finds partitions above ``hot_ratio``×
        the mean, and migrates their heaviest hosts to the least-loaded
        partitions: politeness state moves exactly; the source partition's
        URL-seen filter is chained read-only into each destination (first-
        wins preserved; per-host bits can't leave a Bloom).  Decisions are
        per-host/per-URL, so visit order is unaffected (tested).  Returns
        the applied salt map.
        """
        loads = ray.get([p.host_load.remote() for p in self.parts])
        totals = np.array([sum(l.values()) for l in loads], dtype=np.float64)
        mean = max(1.0, totals.mean())
        new_salt: dict[str, int] = {}
        for p_hot in np.argsort(-totals):
            if totals[p_hot] <= hot_ratio * mean:
                break
            excess = totals[p_hot] - mean
            hosts_sorted = sorted(loads[p_hot].items(), key=lambda kv: -kv[1])
            seen = None
            chained: set[int] = set()
            for host, load in hosts_sorted:
                if excess <= 0:
                    break
                p_cold = int(np.argmin(totals))
                if p_cold == p_hot:
                    break
                state = self.parts[p_hot].export_hosts.remote([host])
                ray.get(self.parts[p_cold].import_hosts.remote(state))
                # every destination needs the source's history, not only
                # the first one (else a moved host re-outputs its URLs)
                if p_cold not in chained:
                    if seen is None:
                        seen = self.parts[p_hot].export_seen.remote()
                    ray.get(self.parts[p_cold].attach_seen_base.remote(seen))
                    chained.add(p_cold)
                new_salt[host] = p_cold
                totals[p_hot] -= load
                totals[p_cold] += load
                excess -= load
        self.salt.update(new_salt)
        return new_salt

    # -- round loop --------------------------------------------------------

    def run(self, max_steps: int, checkpoint_every: int | None = None,
            max_rounds: int | None = None,
            keep_checkpoints: int | None = None) -> CrawlStats:
        t0 = time.perf_counter()
        # prime the first round's proposals (subsequent rounds get theirs
        # from the fused resolve_and_propose call)
        prop_futs = [s.propose_all.remote() for s in self.shards]
        while self.steps < max_steps:
            if max_rounds is not None and self.round >= max_rounds:
                break
            prop_futs, made_progress = self._run_round(prop_futs)
            if checkpoint_every and self.out_dir and self.round % checkpoint_every == 0:
                self.checkpoint()
                if keep_checkpoints:
                    self.prune_checkpoints(keep_checkpoints)
            if not made_progress:
                alive = sum(ray.get([s.alive.remote() for s in self.shards]))
                if alive == 0:
                    break
        self.stats.steps = self.steps
        self.stats.rounds = self.round
        self.stats.elapsed_sec = time.perf_counter() - t0
        self.stats.urls_per_sec = (
            self.steps / self.stats.elapsed_sec if self.stats.elapsed_sec > 0 else 0.0
        )
        self.stats.partition_metrics = {
            p: m for p, m in enumerate(ray.get([a.get_metrics.remote() for a in self.parts]))
        }
        if self.out_dir:
            self._flush_outputs()
        return self.stats

    def _run_round(self, prop_futs: list) -> tuple[list, bool]:
        now = self.round
        self.round += 1
        proposals = []
        for res in ray.get(prop_futs):
            proposals.extend(res)
        if not proposals:
            return [s.propose_all.remote() for s in self.shards], False
        # cache hits: record the step now; the walker applies it on ack
        cache_acks: dict[int, list[tuple[int, str, None]]] = {}
        for wid, url, action, cached in proposals:
            if cached:
                self.steps += 1
                self.stats.cache_hits += 1
                self.visit_rows.append((now, wid, url, host_of(url), action, True))
                cache_acks.setdefault(wid % self.n_walker_shards, []).append(
                    (wid, "cache")
                )
        pending = [(wid, url, action) for wid, url, action, c in proposals if not c]
        if not pending:
            next_futs = [
                self.shards[s].resolve_and_propose.remote(cache_acks.get(s, []))
                for s in range(self.n_walker_shards)
            ]
            return next_futs, True
        hosts = [host_of(u) for _, u, _ in pending]
        parts = partition_of(hosts, self.n_partitions, self.salt)
        by_part: dict[int, list[int]] = {}
        for i, p in enumerate(parts.tolist()):
            by_part.setdefault(p, []).append(i)
        # ONE actor call per partition: gate + fetch + bloom + corpus
        # buffer.  The call returns 1 meta object (small, driver-bound) +
        # one link payload PER WALKER SHARD: the driver ray.gets only the
        # metas, and passes the link-payload refs straight into the shard
        # actors — link lists (~95% of result bytes) move object-store →
        # shard without ever being serialized through the driver.
        S = self.n_walker_shards
        part_ids = list(by_part)
        meta_refs, link_refs = [], []
        for p in part_ids:
            refs = self.parts[p].gate_fetch.options(num_returns=1 + S).remote(
                [pending[i] for i in by_part[p]], now, S
            )
            meta_refs.append(refs[0])
            link_refs.append(refs[1:])
        # PIPELINE: fetch verdicts ride the per-shard payload refs, so the
        # next round's fused resolve+propose dispatches IMMEDIATELY — each
        # shard pulls its verdicts+links straight from the object store as
        # its partitions finish, and the driver's meta read below runs in
        # PARALLEL with that work instead of gating it (measured: the
        # verdict-routing hop was ~40% of round latency).  Cache acks stay
        # driver-routed (invariant: cache steps are driver-recorded).
        next_futs = [
            self.shards[s].resolve_and_propose.remote(
                cache_acks.get(s, []),
                [link_refs[j][s] for j in range(len(part_ids))],
            )
            for s in range(S)
        ]
        # driver-side accounting (stats + visit rows), off the critical path
        res_all = ray.get(meta_refs)
        by_wid = {wid: (i, url, action) for i, (wid, url, action) in enumerate(pending)}
        for p, res in zip(part_ids, res_all):
            for wid, verdict, is_new in res:
                i, url, action = by_wid[wid]
                if verdict == "ok":
                    self.steps += 1
                    self.stats.fetches += 1
                    self.visit_rows.append((now, wid, url, hosts[i], action, False))
                    if is_new:
                        self.stats.outputs += 1
                elif verdict == "wait":
                    self.stats.waits += 1
                else:
                    self.stats.failed += 1
        return next_futs, True

    # -- fixtures ----------------------------------------------------------

    def visit_order(self) -> list[tuple[int, str, str, str]]:
        """(seq, url, host, action) ordered by (round, walker_id).

        Reconstructed from the flushed visits parquet plus the in-memory
        unflushed tail — the driver never holds the whole log."""
        flushed = commit.read_visits(self.out_dir, VISIT_COLUMNS) if self.out_dir else []
        rows = sorted(flushed + self.visit_rows, key=lambda r: (r[0], r[1]))
        return [(i + 1, r[2], r[3], r[4]) for i, r in enumerate(rows)]

    def url_seen(self) -> set[str]:
        """The Bloom-accepted output set = persisted corpus ∪ actor buffers.

        Derived, not driver-held: the authoritative first-wins state is the
        sharded Bloom; every accepted URL has exactly one corpus row, either
        already flushed to parquet or still buffered in its partition actor
        (or drained to ``_corpus_local`` by ``collect_corpus``)."""
        seen = commit.corpus_urls(self.out_dir) if self.out_dir else set()
        if self.parts:
            for urls in ray.get([p.buffered_urls.remote() for p in self.parts]):
                seen.update(urls)
        seen.update(r["url"] for r in getattr(self, "_corpus_local", []))
        return seen

    def collect_corpus(self) -> list[dict]:
        """Drain corpus rows buffered in the partition actors (accumulates
        driver-side across calls; for tests/small runs — large runs use
        ``flush_corpus`` → per-partition parquet instead)."""
        if not hasattr(self, "_corpus_local"):
            self._corpus_local: list[dict] = []
        for rows in ray.get([p.drain_corpus.remote() for p in self.parts]):
            self._corpus_local.extend(rows)
        return self._corpus_local

    # -- checkpoint / resume (protocol: state/commit.py) --------------------

    def checkpoint(self) -> str:
        """Commit walker stacks + RNG, partition state and a lineage
        manifest as one checkpoint; returns its directory."""
        assert self.out_dir
        # flush BEFORE snapshotting so restored corpus buffers are empty
        # (no double-write after resume)
        self._flush_outputs()
        shard_blobs = ray.get([s.snapshot.remote() for s in self.shards])
        part_blobs = ray.get([p.snapshot.remote() for p in self.parts])
        part_metrics = ray.get([p.get_metrics.remote() for p in self.parts])
        meta = {
            "round": self.round, "steps": self.steps,
            "outputs": self.stats.outputs, "n_walkers": self.n_walkers,
            "n_partitions": self.n_partitions, "n_walker_shards": self.n_walker_shards,
            "seed": self.seed, "salt": self.salt,
            **commit.run_inputs(self.graph, self.cfg),
        }
        return commit.write_round(
            self.out_dir, self.round, meta, part_blobs,
            [{"metrics": m} for m in part_metrics], shard_blobs,
        )

    def prune_checkpoints(self, keep_last: int) -> list[str]:
        """Delete all but the newest ``keep_last`` committed checkpoints
        (``commit.prune``): at frontier scale each one carries every
        partition's URL-seen filter, so retention must be bounded.
        Returns the pruned checkpoint paths."""
        assert self.out_dir
        return commit.prune(self.out_dir, keep_last)

    def _flush_outputs(self) -> None:
        self._visits_flushed_rows += commit.flush_visits(
            self.out_dir, self.round, self._visits_flushed_rows, self.visit_rows,
            VISIT_COLUMNS,
        )
        self.visit_rows = []  # truncate: driver memory stays O(window)
        ray.get([p.flush_corpus.remote(self.out_dir, self.round) for p in self.parts])

    @classmethod
    def resume(cls, graph: WebGraph, out_dir: str, config: CrawlConfig | None = None,
               **kw) -> "CrawlEngine":
        """Continue from the newest committed checkpoint.  ``config``
        defaults to the stored one; a given config or graph that differs
        from the stored one raises ValueError."""
        ck = commit.latest(out_dir)
        meta = ck.meta
        config = config or CrawlConfig(**meta["config"])
        commit.check_inputs(meta, graph, config)
        commit.remove_orphans(out_dir, meta["round"])
        eng = cls(graph, n_walkers=meta["n_walkers"], n_partitions=meta["n_partitions"],
                  n_walker_shards=meta["n_walker_shards"], seed=meta["seed"],
                  config=config, out_dir=out_dir, **kw)
        shard_blobs = ck.blobs("shard", eng.n_walker_shards)
        part_blobs = ck.blobs("part", eng.n_partitions)
        # batched: all restores deserialize in parallel
        ray.get([s.restore.remote(b) for s, b in zip(eng.shards, shard_blobs)]
                + [p.restore.remote(b) for p, b in zip(eng.parts, part_blobs)])
        eng.round = meta["round"]
        eng.steps = meta["steps"]
        eng.stats.outputs = meta["outputs"]
        eng.salt = dict(meta["salt"])
        eng._visits_flushed_rows = commit.count_visits(out_dir)
        return eng
