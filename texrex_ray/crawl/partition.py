"""One frontier partition's state, in plain Python (no Ray in this module).

Both crawl engines split the frontier by ``hash(host) % P``; a partition
owns its hosts' politeness and robots state, its URL-seen filter, its
metrics and its buffered corpus rows.  ``PartitionCore`` holds that state
and everything done with it that does not depend on the scheduler: the
politeness/robots gate, URL-seen adds, corpus flushes, hot-host
migration and checkpoint snapshots.  The walk engine's ``WalkPartition``
(``crawl/engine.py``) adds ``gate_fetch``; the priority engine's
``PriorityPartition`` (``crawl/priority.py``) adds the frontier heap.
The priority engine's actor is ``ray.remote`` of its subclass; the walk
engine's, ``CrawlWorker``, also hosts a walker shard.  Each subclass runs
as a plain object too (the tests drive it that way).
"""

from __future__ import annotations

import pickle
from collections import Counter
from urllib.parse import urlsplit

import numpy as np

from texrex_ray.crawl.policy import CrawlConfig
from texrex_ray.state import commit
from texrex_ray.state.politeness import PolitenessManager
from texrex_ray.state.urlseen import make_url_seen, restore_url_seen


class PartitionCore:
    def __init__(self, part_id: int, robots_map: dict[str, str | None],
                 pages, cfg: CrawlConfig):
        self.part_id = part_id
        self.cfg = cfg
        self.robots_map = robots_map
        self.pages = pages
        self.pm = PolitenessManager(
            min_politeness=cfg.min_politeness,
            robots_refresh_interval=cfg.robots_refresh_interval,
            agent=cfg.agent,
        )
        self.seen = make_url_seen(cfg)  # bloom or cuckoo per config
        self.metrics: Counter = Counter()
        self.corpus_buf: list[dict] = []

    # -- per-URL gates -----------------------------------------------------

    def _robots_body(self, url: str, host: str) -> str | None:
        """robots.txt body for ``host``: the broadcast map first (synthetic
        graphs ship all robots up front), else fetched over the live
        transport when one is attached — the reference fetches robots over
        HTTP on the same refresh clock (ref: trpoliteness.pas:164-285).
        Non-200 (incl. redirect-without-follow) ⇒ no rules, like the
        reference's missing-robots default."""
        if host in self.robots_map:
            return self.robots_map[host]
        if getattr(self.pages, "fetches_robots", False):
            sp = urlsplit(url)
            res = self.pages.get(f"{sp.scheme}://{sp.netloc}/robots.txt")
            if res is not None and res[0] == 200:
                return res[1].decode("utf-8", "replace")
        return None

    def gate(self, url: str, host: str, now: int) -> int:
        """Refresh robots when due, then −1 disallowed, 0 fetch now, >0
        rounds to wait (``PolitenessManager.seconds_until_retrieval``)."""
        if self.pm.needs_robots(host, now):
            self.pm.set_robots(host, self._robots_body(url, host), now)
            self.metrics["robots_fetches"] += 1
        w = self.pm.seconds_until_retrieval(url, now)
        if w < 0:
            self.metrics["disallowed"] += 1
        return w

    def add_if_new(self, urls: list[str]) -> np.ndarray:
        """URL-seen first-wins add.  A full filter refuses adds and reports
        them as seen; those refusals are counted in ``url_seen_refused``."""
        refused = self.seen.n_refused
        fresh = self.seen.add_if_new(urls)
        self.metrics["url_seen_refused"] += self.seen.n_refused - refused
        return fresh

    # -- corpus buffer -----------------------------------------------------

    def flush_corpus(self, out_dir: str, upto_round: int) -> int:
        n = commit.flush_corpus(out_dir, self.part_id, upto_round, self.corpus_buf)
        self.corpus_buf = []
        return n

    def drain_corpus(self) -> list[dict]:
        rows, self.corpus_buf = self.corpus_buf, []
        return rows

    def buffered_urls(self) -> list[str]:
        return [r["url"] for r in self.corpus_buf]

    def peek_corpus(self, n: int = 1) -> list[dict]:
        """Last n BUFFERED (not yet flushed) processed docs — the texcomm
        `peek` verb (ref: trtexrex.pas:739-763).  Text clipped to 400 chars
        so peeking never ships a full document to the driver."""
        out = []
        for r in self.corpus_buf[-n:]:
            r = dict(r)
            r["text"] = (r.get("text") or "")[:400]
            r.pop("links", None)
            out.append(r)
        return out

    def get_metrics(self) -> dict:
        return dict(self.metrics)

    def reconfigure(self, changes: dict) -> None:
        for k, v in changes.items():
            setattr(self.cfg, k, v)
        # the politeness manager holds its own copies of these fields
        self.pm.min_politeness = self.cfg.min_politeness
        self.pm.robots_refresh_interval = self.cfg.robots_refresh_interval
        self.pm.agent = self.cfg.agent

    # -- hot-host migration (salted repartition) ---------------------------

    def export_hosts(self, hosts: list[str]) -> dict:
        """Extract (and drop) everything this partition owns for the given
        hosts.  URL-seen bits cannot be extracted per host — the caller
        chains a frozen copy of the whole filter instead
        (``attach_seen_base``)."""
        return {"politeness": self.pm.export_hosts(hosts)}

    def import_hosts(self, state: dict) -> None:
        self.pm.import_hosts(state["politeness"])

    def export_seen(self) -> dict:
        return {"origin": self.part_id, "seen": self.seen.snapshot()}

    def attach_seen_base(self, export: dict) -> None:
        """Chain another partition's URL-seen filter as read-only history:
        migrated hosts keep no false negatives (first-wins) at a small
        false-positive cost.  History is keyed by origin partition, so a
        repeated attach replaces the older copy instead of adding one."""
        self.seen.chain_base(restore_url_seen(export["seen"]), export["origin"],
                             own=self.part_id)

    # -- checkpoint --------------------------------------------------------

    def snapshot(self) -> bytes:
        return pickle.dumps(self._state())

    def _state(self) -> dict:
        # corpus_buf is empty when the engine flushed before snapshotting
        # (the checkpoint contract), so a resume never writes a row twice
        return {
            "politeness": self.pm.snapshot(),
            "seen": self.seen.snapshot(),
            "metrics": dict(self.metrics),
            "corpus_buf": self.corpus_buf,
        }

    def restore(self, blob: bytes) -> None:
        self._load(pickle.loads(blob))

    def _load(self, snap: dict) -> None:
        self.pm = PolitenessManager.restore(snap["politeness"])
        self.seen = restore_url_seen(snap["seen"])
        self.metrics = Counter(snap["metrics"])
        self.corpus_buf = list(snap["corpus_buf"])
