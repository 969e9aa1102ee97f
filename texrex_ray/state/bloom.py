"""Scaling Bloom filter — the URL-seen / doc-fingerprint-seen set.

Semantics follow the reference's TTrScalingBloomFilter (ref:
trbloom.pas:169-209, 449-582): a chain of static Bloom filters; when the
newest segment reaches its capacity a new segment of double size is
appended; membership = any segment hits; adds go to the newest segment.
Sizing math is the reference's: bits = ⌈−n·ln p / ln²2⌉ + 1, k =
⌈ln 2 · bits/n⌉ (trbloom.pas:289-294).  Memory growth stops at
``max_memory_mb`` after which adds are refused (OutOfMemory flag,
trbloom.pas:546-582); the first refusal logs a warning.

Implementation: numpy uint8 bit arrays; k indexes derived from one stable
64-bit hash via the Kirsch–Mitzenmacher double-hashing construction
h_i = h1 + i·h2 (public-domain standard).  Deterministic across processes.

Distributed use: one filter per frontier partition (shard = host-hash),
so first-wins races never span actors (SURVEY.md §7.4).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from texrex_ray.functions.hashing import hash64


def bloom_bits(n: int, p: float) -> int:
    """bits = ceil(−n·ln p / ln²2) + 1 (ref: trbloom.pas:289-294)."""
    return int(math.ceil(-n * math.log(p) / (math.log(2) ** 2))) + 1


def bloom_hashes(bits: int, n: int) -> int:
    return max(1, int(math.ceil(math.log(2) * bits / n)))


class _Segment:
    __slots__ = ("bits", "k", "arr", "capacity", "count")

    def __init__(self, capacity: int, error_rate: float):
        self.capacity = capacity
        self.bits = bloom_bits(capacity, error_rate)
        self.k = bloom_hashes(self.bits, capacity)
        self.arr = np.zeros((self.bits + 7) // 8, dtype=np.uint8)
        self.count = 0

    def _positions(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        # (n, k) bit positions via double hashing
        ks = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            pos = (h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(self.bits)
        return pos

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        pos = self._positions(h1, h2)
        byte = (pos >> np.uint64(3)).astype(np.int64)
        bit = (pos & np.uint64(7)).astype(np.uint8)
        return ((self.arr[byte] >> bit) & 1).all(axis=1)

    def add(self, h1: np.ndarray, h2: np.ndarray) -> None:
        pos = self._positions(h1, h2)
        byte = (pos >> np.uint64(3)).astype(np.int64).reshape(-1)
        bit = (pos & np.uint64(7)).astype(np.uint8).reshape(-1)
        np.bitwise_or.at(self.arr, byte, np.uint8(1) << bit)
        self.count += len(h1)


class ScalingBloom:
    """First-wins membership set with scaling segments."""

    kind = "bloom"

    def __init__(
        self,
        initial_capacity: int = 100_000,
        error_rate: float = 1e-6,
        max_memory_mb: int = 1024,
        growth: int = 2,
    ):
        self.error_rate = error_rate
        self.max_memory_bytes = max_memory_mb * 1024 * 1024
        self.growth = growth
        self.segments: list[_Segment] = [_Segment(initial_capacity, error_rate)]
        # read-only history chained from other partitions (hot-host
        # migration): origin partition -> (its n_added, its segments)
        self.history: dict[int, tuple[int, list[_Segment]]] = {}
        self.out_of_memory = False
        self.n_added = 0
        self.n_refused = 0  # adds refused once out_of_memory (reported seen)

    def _hash_pair(self, items: list[str]) -> tuple[np.ndarray, np.ndarray]:
        # blake2b is C-implemented and threadless — constant sub-µs cost per
        # item inside actor processes (a thread-pooled vector hash measured
        # ~1 ms/call under actor CPU contention)
        import hashlib

        h1 = np.empty(len(items), dtype=np.uint64)
        h2 = np.empty(len(items), dtype=np.uint64)
        for i, s in enumerate(items):
            d = hashlib.blake2b(s.encode("utf-8"), digest_size=16).digest()
            h1[i] = int.from_bytes(d[:8], "little")
            h2[i] = int.from_bytes(d[8:], "little") | 1  # odd → full-period stride
        return h1, h2

    @property
    def memory_bytes(self) -> int:
        """Bytes of this filter's own segments — what ``max_memory_mb``
        caps.  Chained history is not counted."""
        return sum(s.arr.nbytes for s in self.segments)

    def _contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        seen = np.zeros(len(h1), dtype=bool)
        for seg in self.segments:
            seen |= seg.contains(h1, h2)
        for _, segs in self.history.values():
            for seg in segs:
                seen |= seg.contains(h1, h2)
        return seen

    def contains_many(self, items: list[str]) -> np.ndarray:
        if not items:
            return np.zeros(0, dtype=bool)
        return self._contains(*self._hash_pair(items))

    def add_if_new(self, items: list[str]) -> np.ndarray:
        """Per item: True if it was NEW (and is now recorded); first-wins.

        Duplicate items within one call resolve in list order (first wins),
        matching the reference's CS-locked sequential adds
        (trbloom.pas:322-341).
        """
        if not items:
            return np.zeros(0, dtype=bool)
        h1, h2 = self._hash_pair(items)
        seen = self._contains(h1, h2)
        new_idx = np.flatnonzero(~seen)
        # resolve intra-batch duplicates sequentially (rare): keep first
        chosen: list[int] = []
        batch_seen: set[str] = set()
        for i in new_idx.tolist():
            if items[i] in batch_seen:
                seen[i] = True
            else:
                batch_seen.add(items[i])
                chosen.append(i)
        if chosen:
            tail = self.segments[-1]
            if tail.count + len(chosen) > tail.capacity:
                new_cap = tail.capacity * self.growth
                projected = self.memory_bytes + _Segment(new_cap, self.error_rate).arr.nbytes
                if projected > self.max_memory_bytes:
                    self.out_of_memory = True
                else:
                    self.segments.append(_Segment(new_cap, self.error_rate))
                    tail = self.segments[-1]
            if not self.out_of_memory:
                idx = np.array(chosen)
                tail.add(h1[idx], h2[idx])
                self.n_added += len(chosen)
            else:
                seen[np.array(chosen)] = True  # refuse adds when OOM
                if not self.n_refused:
                    warn_full(self)
                self.n_refused += len(chosen)
        return ~seen

    # -- chaining (hot-shard migration; cuckoo backend has the same API) ----

    def chain_base(self, base: "ScalingBloom", origin: int = 0) -> None:
        """Chain ``base`` — partition ``origin``'s filter — as read-only
        history.  History is keyed by origin partition: ``base``'s own
        segments and each of its history entries replace an older copy of
        the same origin (the one with fewer adds), so repeated migrations
        never stack copies.  Adds keep going to this filter's own tail."""
        chain_history(self.history, base.history, origin, base.n_added, base.segments)

    # -- snapshot / restore (checkpointing) --------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "error_rate": self.error_rate,
            "max_memory_bytes": self.max_memory_bytes,
            "growth": self.growth,
            "n_added": self.n_added,
            "out_of_memory": self.out_of_memory,
            "n_refused": self.n_refused,
            "segments": _segments_snapshot(self.segments),
            "history": {
                o: {"n_added": n, "segments": _segments_snapshot(segs)}
                for o, (n, segs) in self.history.items()
            },
        }

    @classmethod
    def restore(cls, snap: dict) -> "ScalingBloom":
        b = cls.__new__(cls)
        b.error_rate = snap["error_rate"]
        b.max_memory_bytes = snap["max_memory_bytes"]
        b.growth = snap["growth"]
        b.n_added = snap["n_added"]
        b.out_of_memory = snap["out_of_memory"]
        b.n_refused = snap["n_refused"]
        b.segments = _segments_restore(snap["segments"], b.error_rate)
        b.history = {
            o: (h["n_added"], _segments_restore(h["segments"], b.error_rate))
            for o, h in snap.get("history", {}).items()
        }
        return b


def _segments_snapshot(segments: list[_Segment]) -> list[dict]:
    return [
        {"capacity": s.capacity, "count": s.count, "arr": s.arr.tobytes()}
        for s in segments
    ]


def _segments_restore(snaps: list[dict], error_rate: float) -> list[_Segment]:
    out = []
    for s in snaps:
        seg = _Segment(s["capacity"], error_rate)
        seg.arr = np.frombuffer(s["arr"], dtype=np.uint8).copy()
        seg.count = s["count"]
        out.append(seg)
    return out


def chain_history(history: dict, incoming: dict, origin: int, n_added: int,
                  own: list) -> None:
    """Merge a chained filter's history into ``history`` (both backends):
    the filter's own parts become ``origin``'s entry, and every entry
    replaces an existing copy of the same origin unless that copy has more
    adds (filters grow, so the copy with more adds is the newer one; a
    cuckoo deletion can only make an older copy win, which keeps the
    deleted URL marked seen, as chaining always did)."""
    for o, (n, parts) in {**incoming, origin: (n_added, own)}.items():
        if o not in history or n >= history[o][0]:
            history[o] = (n, parts)


def warn_full(f) -> None:
    """One warning per filter, at its first refused add."""
    logging.getLogger(__name__).warning(
        "URL-seen %s filter reached max_memory_mb=%g: refusing adds, fresh "
        "URLs are reported as seen (counted in n_refused)",
        f.kind, f.max_memory_bytes / (1024 * 1024),
    )
