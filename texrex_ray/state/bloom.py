"""Scaling Bloom filter — the default URL-seen / doc-fingerprint-seen set.

The chain (growth, memory cap, history, snapshots) is
``state/urlseen.py::ScalingChain``; this module adds the segment type, a
static Bloom filter.  Sizing math is the reference's: bits = ⌈−n·ln p /
ln²2⌉ + 1, k = ⌈ln 2 · bits/n⌉ (trbloom.pas:289-294).

Implementation: numpy uint8 bit arrays; k indexes derived from the
chain's hash pair via the Kirsch–Mitzenmacher double-hashing
construction h_i = h1 + i·h2 (public-domain standard).
"""

from __future__ import annotations

import math

import numpy as np

from texrex_ray.state.urlseen import ScalingChain


def bloom_bits(n: int, p: float) -> int:
    """bits = ceil(−n·ln p / ln²2) + 1 (ref: trbloom.pas:289-294)."""
    return int(math.ceil(-n * math.log(p) / (math.log(2) ** 2))) + 1


def bloom_hashes(bits: int, n: int) -> int:
    return max(1, int(math.ceil(math.log(2) * bits / n)))


class BloomSegment:
    """One static Bloom filter of ``capacity`` items at ``error_rate``."""

    __slots__ = ("capacity", "bits", "k", "arr", "count")

    def __init__(self, capacity: int, error_rate: float,
                 arr: np.ndarray | None = None, count: int = 0):
        self.capacity = capacity
        self.bits = bloom_bits(capacity, error_rate)
        self.k = bloom_hashes(self.bits, capacity)
        self.arr = np.zeros((self.bits + 7) // 8, dtype=np.uint8) if arr is None else arr
        self.count = count

    @staticmethod
    def nbytes_for(capacity: int, error_rate: float) -> int:
        return (bloom_bits(capacity, error_rate) + 7) // 8

    @property
    def nbytes(self) -> int:
        return self.arr.nbytes

    def _bit_index(self, h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (n, k) bit positions via double hashing; an odd stride has full period
        ks = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            pos = (h1[:, None] + ks[None, :] * (h2 | np.uint64(1))[:, None]) % np.uint64(self.bits)
        return (pos >> np.uint64(3)).astype(np.int64), (pos & np.uint64(7)).astype(np.uint8)

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        byte, bit = self._bit_index(h1, h2)
        return ((self.arr[byte] >> bit) & 1).all(axis=1)

    def insert(self, h1: np.ndarray, h2: np.ndarray, opened: bool) -> np.ndarray:
        """Store the whole batch if it fits; else nothing, unless this
        segment was opened for the batch, which then fills it."""
        n = len(h1)
        if self.count + n > self.capacity:
            n = self.capacity - self.count if opened else 0
        byte, bit = self._bit_index(h1[:n], h2[:n])
        np.bitwise_or.at(self.arr, byte.reshape(-1), np.uint8(1) << bit.reshape(-1))
        self.count += n
        return np.ones(n, dtype=bool)

    def snapshot(self) -> dict:
        return {"capacity": self.capacity, "count": self.count, "arr": self.arr.tobytes()}

    @classmethod
    def restore(cls, snap: dict, error_rate: float) -> "BloomSegment":
        arr = np.frombuffer(snap["arr"], dtype=np.uint8).copy()
        return cls(snap["capacity"], error_rate, arr, snap["count"])


class ScalingBloom(ScalingChain):
    """First-wins membership set over a scaling chain of Bloom filters."""

    kind = "bloom"
    segment = BloomSegment
