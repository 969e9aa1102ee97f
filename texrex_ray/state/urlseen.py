"""URL-seen set: one scaling chain of filter segments, Bloom or cuckoo.

The paper's URL-seen set is texrex's TTrScalingBloomFilter (ref:
trbloom.pas:169-209, 322-341, 449-582): a chain of static filters;
membership = any segment hits; adds go to the newest segment; a batch
the newest segment cannot take opens a segment of double capacity.
Growth stops at ``max_memory_mb``, after which adds are refused: they are
reported as seen, counted in ``n_refused``, and the first one logs a
warning (the reference's OutOfMemory flag, trbloom.pas:546-582).

``ScalingChain`` is that chain for both backends of the north rule's
"sharded bloom/cuckoo" URL-seen set.  It owns the segments, the chained
history, hashing, first-wins admission, growth, the memory cap and the
snapshot envelope; ``state/bloom.py`` and ``state/cuckoo.py`` add only a
segment type (probe, insert a batch prefix, bytes, serialize) and its
sizing math, plus the cuckoo's ``delete_many``.

The crawl engine, its sequential oracle and the priority crawler pick a
backend via ``CrawlConfig.url_seen_backend`` and stay decision-identical
at test scale (both are false-negative-free; neither false-positives on
the fixture corpus sizes — the engine-equivalence test).  Snapshots are
self-describing (``kind`` key), so a restore never needs to know which
backend wrote it.  Distributed use: one filter per frontier partition
(shard = host-hash), so first-wins races never span actors (SURVEY.md
§7.4).
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np


def hash_pair(items: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Two 64-bit hashes per item: the little-endian halves of one 16-byte
    blake2b digest.  blake2b is C-implemented and threadless — constant
    sub-µs cost per item inside actor processes (a thread-pooled vector
    hash measured ~1 ms/call under actor CPU contention) — and
    deterministic across processes."""
    buf = b"".join(
        hashlib.blake2b(s.encode("utf-8"), digest_size=16).digest() for s in items
    )
    h = np.frombuffer(buf, dtype="<u8").reshape(-1, 2)
    return h[:, 0], h[:, 1]


class ScalingChain:
    """First-wins membership set over a scaling chain of segments.

    Subclasses set ``kind`` (the snapshot tag) and ``segment``, a type
    built as ``segment(capacity, error_rate)`` with ``capacity``,
    ``count``, ``nbytes``, ``contains(h1, h2)``, ``insert(h1, h2,
    opened)``, ``snapshot()`` and the class methods ``nbytes_for`` and
    ``restore``."""

    kind: str
    segment: type

    def __init__(
        self,
        initial_capacity: int = 100_000,
        error_rate: float = 1e-6,
        max_memory_mb: int = 1024,
    ):
        self.error_rate = error_rate
        self.max_memory_bytes = max_memory_mb * 1024 * 1024
        self.segments = [self.segment(initial_capacity, error_rate)]
        # read-only history chained from other partitions (hot-host
        # migration): origin partition -> (its n_added, its segments)
        self.history: dict[int, tuple[int, list]] = {}
        self.out_of_memory = False
        self.n_added = 0
        self.n_refused = 0  # adds refused once out_of_memory (reported seen)

    @property
    def memory_bytes(self) -> int:
        """Bytes of this filter's own segments — what ``max_memory_mb``
        caps.  Chained history is not counted."""
        return sum(s.nbytes for s in self.segments)

    def _contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        seen = np.zeros(len(h1), dtype=bool)
        for seg in self.segments + [s for _, segs in self.history.values() for s in segs]:
            seen |= seg.contains(h1, h2)
        return seen

    def contains_many(self, items: list[str]) -> np.ndarray:
        return self._contains(*hash_pair(items))

    def add_if_new(self, items: list[str]) -> np.ndarray:
        """Per item: True if it was NEW (and is now recorded); first-wins.

        Duplicates within one call resolve in list order (first wins),
        matching the reference's CS-locked sequential adds
        (trbloom.pas:322-341).  The tail stores a prefix of the batch (the
        Bloom all or nothing, the cuckoo item by item); the rest is checked
        against the tail, which now holds the batch's earlier items, and
        goes to a segment of double capacity.  A batch larger than that
        fresh segment fills it and spills into further doubled ones, so no
        segment ever holds more than its capacity."""
        h1, h2 = hash_pair(items)
        new = ~self._contains(h1, h2)
        batch: set[str] = set()
        for i in np.flatnonzero(new).tolist():
            if items[i] in batch:
                new[i] = False
            else:
                batch.add(items[i])
        todo = np.flatnonzero(new)
        opened = False
        while len(todo) and not self.out_of_memory:
            tail = self.segments[-1]
            stored = tail.insert(h1[todo], h2[todo], opened)
            new[todo[: len(stored)]] = stored
            self.n_added += int(stored.sum())
            todo = todo[len(stored):]
            if len(todo) and len(stored):  # the tail changed: re-check the rest
                hit = tail.contains(h1[todo], h2[todo])
                new[todo[hit]] = False
                todo = todo[~hit]
            if len(todo):
                self._grow()
                opened = True
        if len(todo):  # out of memory: refuse, i.e. report as seen
            new[todo] = False
            if not self.n_refused:
                logging.getLogger(__name__).warning(
                    "URL-seen %s filter reached max_memory_mb=%g: refusing adds, "
                    "fresh URLs are reported as seen (counted in n_refused)",
                    self.kind, self.max_memory_bytes / (1024 * 1024),
                )
            self.n_refused += len(todo)
        return new

    def _grow(self) -> None:
        """Append a segment of double capacity, or set ``out_of_memory``
        if it would take the filter past ``max_memory_mb``."""
        cap = 2 * self.segments[-1].capacity
        if self.memory_bytes + self.segment.nbytes_for(cap, self.error_rate) > self.max_memory_bytes:
            self.out_of_memory = True
        else:
            self.segments.append(self.segment(cap, self.error_rate))

    # -- chaining (hot-shard migration) -------------------------------------

    def chain_base(self, base: "ScalingChain", origin: int = 0,
                   own: int | None = None) -> None:
        """Chain ``base`` — partition ``origin``'s filter — as read-only
        history.  History is keyed by origin partition: ``base``'s own
        segments and each of its history entries replace an existing copy
        of the same origin unless that copy has more adds (filters grow, so
        the copy with more adds is the newer one; a cuckoo deletion can only
        make an older copy win, which keeps the deleted URL marked seen).
        Entries of origin ``own`` — the partition this filter belongs to,
        whose live segments already hold them — are skipped.  Adds keep
        going to this filter's own tail."""
        for o, (n, segs) in {**base.history, origin: (base.n_added, base.segments)}.items():
            if o != own and (o not in self.history or n >= self.history[o][0]):
                self.history[o] = (n, segs)

    # -- snapshot / restore (checkpointing) ----------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "error_rate": self.error_rate,
            "max_memory_bytes": self.max_memory_bytes,
            "n_added": self.n_added,
            "out_of_memory": self.out_of_memory,
            "n_refused": self.n_refused,
            "segments": [s.snapshot() for s in self.segments],
            "history": {
                o: {"n_added": n, "segments": [s.snapshot() for s in segs]}
                for o, (n, segs) in self.history.items()
            },
        }

    @classmethod
    def restore(cls, snap: dict) -> "ScalingChain":
        f = cls.__new__(cls)
        for k in ("error_rate", "max_memory_bytes", "n_added", "out_of_memory", "n_refused"):
            setattr(f, k, snap[k])

        def segs(snaps: list[dict]) -> list:
            return [cls.segment.restore(s, f.error_rate) for s in snaps]

        f.segments = segs(snap["segments"])
        f.history = {o: (h["n_added"], segs(h["segments"])) for o, h in snap["history"].items()}
        return f


def url_seen_class(backend: str) -> type[ScalingChain]:
    """The filter type of ``backend`` ("bloom" or "cuckoo")."""
    from texrex_ray.state.bloom import ScalingBloom
    from texrex_ray.state.cuckoo import ScalingCuckoo

    backends = {c.kind: c for c in (ScalingBloom, ScalingCuckoo)}
    try:
        return backends[backend]
    except KeyError:
        raise ValueError(
            f"unknown url_seen_backend {backend!r}; pick one of {sorted(backends)}"
        ) from None


def make_url_seen(cfg) -> ScalingChain:
    """Build the configured URL-seen filter from a CrawlConfig."""
    return url_seen_class(getattr(cfg, "url_seen_backend", "bloom"))(
        initial_capacity=cfg.bloom_initial_capacity,
        error_rate=cfg.bloom_error_rate,
        max_memory_mb=cfg.bloom_max_memory_mb,
    )


def restore_url_seen(snap: dict) -> ScalingChain:
    """Restore a filter from its self-describing snapshot."""
    return url_seen_class(snap["kind"]).restore(snap)
