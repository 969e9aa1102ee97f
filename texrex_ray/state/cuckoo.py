"""Scaling cuckoo filter — the URL-seen set's deletion-capable backend.

The north rule names a "sharded bloom/cuckoo URL-seen filter"; this is
the cuckoo half.  The chain (growth, memory cap, history, snapshots) is
``state/urlseen.py::ScalingChain``, shared with the Bloom backend; this
module adds the segment type, a cuckoo table, plus the one capability a
Bloom filter cannot offer: ``delete_many`` (retract a URL so it can be
re-crawled, e.g. after a transient fetch failure, without rebuilding the
filter).

Design is the standard partial-key cuckoo filter (Fan, Andersen,
Kaminsky, Mitzenmacher, "Cuckoo Filter: Practically Better Than Bloom",
CoNEXT 2014 — public algorithm): buckets of ``BUCKET_SIZE``
fingerprints, alternate bucket ``i2 = i1 XOR H(fp)`` over a
power-of-two bucket count (so ``alt(alt(i)) == i``), bounded eviction
chains with a one-entry victim cache per table (an exhausted chain
parks its in-hand fingerprint there — membership NEVER loses an item).
A table takes a batch item by item, each checked against the table that
already holds the batch's earlier items, until an insert fails; the
chain then opens a table of double size.  All choices (hashing,
eviction victim) are deterministic, making crawl runs reproducible
across processes and layouts.

Fingerprint width derives from ``error_rate`` (per-table FP ≈
2·BUCKET_SIZE / 2^bits): 1e-6 → 32-bit fingerprints (FP ≈ 2e-9/table,
matching the Bloom default's exactness at test scale), looser rates →
16-bit.  ``delete_many`` is safe only for items that were actually
inserted (the standard cuckoo caveat: deleting a never-inserted item
can strip a colliding fingerprint and create a false negative for its
owner).
"""

from __future__ import annotations

import numpy as np

from texrex_ray.state.urlseen import ScalingChain, hash_pair

BUCKET_SIZE = 4  # fingerprints per bucket
MAX_KICKS = 500  # eviction-chain bound per insert
LOAD = 0.95  # stop inserting at 95% load — the practical cuckoo bound for b=4
_EMPTY = 0  # fingerprints are forced nonzero


def fp_dtype(error_rate: float) -> type:
    """Fingerprint width from the requested FP rate: per-table FP ≈
    2·BUCKET_SIZE / 2^bits, so bits ≥ log2(2·BUCKET_SIZE / p)."""
    return np.uint16 if error_rate >= 2 * BUCKET_SIZE / 65536 else np.uint32


def buckets_for(capacity: int) -> int:
    """Power-of-two bucket count holding ``capacity`` items at ``LOAD``."""
    need = max(1, int(np.ceil(capacity / (BUCKET_SIZE * LOAD))))
    return 1 << (need - 1).bit_length()


def _fp_offset(fp, mask):
    """Bucket-index offset derived from the fingerprint (MurmurHash-style
    integer mix), XORed onto the index — partners are symmetric.  Works
    on Python ints and on uint64 arrays alike."""
    x = (fp * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 13
    return x & mask


class CuckooTable:
    __slots__ = ("n_buckets", "slots", "count", "full", "victim", "_kick_state")

    def __init__(self, capacity: int, error_rate: float):
        self.n_buckets = buckets_for(capacity)
        self.slots = np.zeros((self.n_buckets, BUCKET_SIZE), dtype=fp_dtype(error_rate))
        self.count = 0
        self.full = False
        self.victim: tuple[int, int] | None = None  # (bucket, fp) overflow
        self._kick_state = 0x9E3779B9  # deterministic eviction choices

    @staticmethod
    def nbytes_for(capacity: int, error_rate: float) -> int:
        return buckets_for(capacity) * BUCKET_SIZE * np.dtype(fp_dtype(error_rate)).itemsize

    @property
    def nbytes(self) -> int:
        return self.slots.nbytes

    @property
    def capacity(self) -> int:
        return int(self.n_buckets * BUCKET_SIZE * LOAD)

    def _keys(self, h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(partner bucket 1, partner bucket 2, nonzero fingerprint) per
        item; the fingerprint is the low bits of ``h2``."""
        fp = h2 & np.uint64(np.iinfo(self.slots.dtype).max)
        fp[fp == 0] = 1
        i1 = h1 & np.uint64(self.n_buckets - 1)
        return i1, i1 ^ _fp_offset(fp, self.n_buckets - 1), fp

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        i1, i2, fp = self._keys(h1, h2)
        col = fp.astype(self.slots.dtype)[:, None]
        hit = ((self.slots[i1.astype(np.intp)] == col).any(axis=1)
               | (self.slots[i2.astype(np.intp)] == col).any(axis=1))
        if self.victim is not None:
            b, v = self.victim
            hit |= (fp == v) & ((i1 == b) | (i2 == b))
        return hit

    def _in_victim(self, i1: int, i2: int, fp: int) -> bool:
        return self.victim is not None and self.victim[1] == fp and self.victim[0] in (i1, i2)

    def _has(self, i1: int, i2: int, fp: int) -> bool:
        return self._in_victim(i1, i2, fp) or bool(
            (self.slots[i1] == fp).any() or (self.slots[i2] == fp).any()
        )

    def insert(self, h1: np.ndarray, h2: np.ndarray, opened: bool) -> np.ndarray:
        """Item by item: an item this table already holds (an earlier item
        of the batch) is not new; others are stored.  Stops at the first
        item the table cannot take; the chain then opens a new table."""
        stored = []
        for i1, i2, fp in zip(*(a.tolist() for a in self._keys(h1, h2))):
            if self._has(i1, i2, fp):
                stored.append(False)
            elif self._put(i1, i2, fp):
                stored.append(True)
            else:
                break
        return np.array(stored, dtype=bool)

    def _try_put(self, i: int, fp: int) -> bool:
        row = self.slots[i]
        empty = np.nonzero(row == _EMPTY)[0]
        if len(empty):
            row[empty[0]] = fp
            self.count += 1
            return True
        return False

    def _put(self, i1: int, i2: int, fp: int) -> bool:
        """True ⇒ the item is recorded in THIS table.  False ⇒ nothing was
        stored here; the table is full."""
        if self.full or self.count >= self.capacity or self.victim is not None:
            self.full = True
            return False
        if self._try_put(i1, fp) or self._try_put(i2, fp):
            return True
        # bounded eviction chain, deterministic victim slot (LCG).  The
        # FIRST swap stores the new item; every later swap is relocation.
        i = i2
        for _ in range(MAX_KICKS):
            self._kick_state = (self._kick_state * 1103515245 + 12345) & 0x7FFFFFFF
            j = self._kick_state % BUCKET_SIZE
            fp, self.slots[i][j] = int(self.slots[i][j]), fp
            i = i ^ _fp_offset(fp, self.n_buckets - 1)
            if self._try_put(i, fp):
                return True
        # chain exhausted: the in-hand fingerprint (someone's relocated
        # entry, owed bucket ``i``) parks in the victim cache; the table
        # stops accepting inserts.  The NEW item was stored by the first
        # swap, so the insert still succeeded.
        self.victim = (i, fp)
        self.count += 1
        self.full = True
        return True

    def delete(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Remove one copy per item; True where one was found here."""
        return np.array(
            [self._drop(*k) for k in zip(*(a.tolist() for a in self._keys(h1, h2)))],
            dtype=bool,
        )

    def _drop(self, i1: int, i2: int, fp: int) -> bool:
        if self._in_victim(i1, i2, fp):
            self.victim = None
            self.count -= 1
            return True
        for i in (i1, i2):
            row = self.slots[i]
            hit = np.nonzero(row == fp)[0]
            if len(hit):
                row[hit[0]] = _EMPTY
                self.count -= 1
                return True
        return False

    def snapshot(self) -> dict:
        return {
            "n_buckets": self.n_buckets,
            "count": self.count,
            "full": self.full,
            "victim": self.victim,
            "kick_state": self._kick_state,
            "slots": self.slots.tobytes(),
        }

    @classmethod
    def restore(cls, snap: dict, error_rate: float) -> "CuckooTable":
        t = cls.__new__(cls)
        t.n_buckets = snap["n_buckets"]
        t.slots = np.frombuffer(snap["slots"], dtype=fp_dtype(error_rate)).reshape(
            t.n_buckets, BUCKET_SIZE
        ).copy()
        t.count = snap["count"]
        t.full = snap["full"]
        t.victim = tuple(snap["victim"]) if snap["victim"] is not None else None
        t._kick_state = snap["kick_state"]
        return t


class ScalingCuckoo(ScalingChain):
    """First-wins membership set over scaling cuckoo tables + deletion."""

    kind = "cuckoo"
    segment = CuckooTable

    def delete_many(self, items: list[str]) -> np.ndarray:
        """Remove one copy per item (newest table first, then chained
        history).  Only call for items previously inserted (standard
        cuckoo deletion contract)."""
        h1, h2 = hash_pair(items)
        out = np.zeros(len(items), dtype=bool)
        for t in self.segments[::-1] + [t for _, ts in self.history.values() for t in ts]:
            todo = np.flatnonzero(~out)
            out[todo] = t.delete(h1[todo], h2[todo])
        self.n_added -= int(out.sum())
        return out
