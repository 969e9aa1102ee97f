"""Scaling Bloom filter — the URL-seen / doc-fingerprint-seen set.

Semantics follow the reference's TTrScalingBloomFilter (ref:
trbloom.pas:169-209, 449-582): a chain of static Bloom filters; when the
newest segment reaches its capacity a new segment of double size is
appended; membership = any segment hits; adds go to the newest segment.
Sizing math is the reference's: bits = ⌈−n·ln p / ln²2⌉ + 1, k =
⌈ln 2 · bits/n⌉ (trbloom.pas:289-294).  Memory growth stops at
``max_memory_mb`` after which adds are refused (OutOfMemory flag,
trbloom.pas:546-582).

Implementation: numpy uint8 bit arrays; k indexes derived from one stable
64-bit hash via the Kirsch–Mitzenmacher double-hashing construction
h_i = h1 + i·h2 (public-domain standard).  Deterministic across processes.

Distributed use: one filter per frontier partition (shard = host-hash),
so first-wins races never span actors (SURVEY.md §7.4).
"""

from __future__ import annotations

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
        return sum(s.arr.nbytes for s in self.segments)

    def contains_many(self, items: list[str]) -> np.ndarray:
        if not items:
            return np.zeros(0, dtype=bool)
        h1, h2 = self._hash_pair(items)
        seen = np.zeros(len(items), dtype=bool)
        for seg in self.segments:
            seen |= seg.contains(h1, h2)
        return seen

    def add_if_new(self, items: list[str]) -> np.ndarray:
        """Per item: True if it was NEW (and is now recorded); first-wins.

        Duplicate items within one call resolve in list order (first wins),
        matching the reference's CS-locked sequential adds
        (trbloom.pas:322-341).
        """
        if not items:
            return np.zeros(0, dtype=bool)
        h1, h2 = self._hash_pair(items)
        seen = np.zeros(len(items), dtype=bool)
        for seg in self.segments:
            seen |= seg.contains(h1, h2)
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
                self.n_refused += len(chosen)
        return ~seen

    # -- chaining (hot-shard migration; cuckoo backend has the same API) ----

    def freeze(self) -> None:
        """Mark all segments full: chained history accepts no adds."""
        for seg in self.segments:
            seg.count = seg.capacity

    def chain_base(self, base: "ScalingBloom") -> None:
        self.segments = base.segments + self.segments

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
            "segments": [
                {"capacity": s.capacity, "count": s.count, "arr": s.arr.tobytes()}
                for s in self.segments
            ],
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
        b.segments = []
        for s in snap["segments"]:
            seg = _Segment(s["capacity"], b.error_rate)
            seg.arr = np.frombuffer(s["arr"], dtype=np.uint8).copy()
            seg.count = s["count"]
            b.segments.append(seg)
        return b
