"""Scaling cuckoo filter — the URL-seen set's deletion-capable backend.

The north rule names a "sharded bloom/cuckoo URL-seen filter"; this is
the cuckoo half, API-compatible with ``state/bloom.py::ScalingBloom``
(``contains_many`` / ``add_if_new`` / ``snapshot`` / ``restore`` /
``chain_base``) plus the one capability a Bloom filter
cannot offer: ``delete_many`` (retract a URL so it can be re-crawled,
e.g. after a transient fetch failure, without rebuilding the filter).

Design is the standard partial-key cuckoo filter (Fan, Andersen,
Kaminsky, Mitzenmacher, "Cuckoo Filter: Practically Better Than Bloom",
CoNEXT 2014 — public algorithm): buckets of ``bucket_size``
fingerprints, alternate bucket ``i2 = i1 XOR H(fp)`` over a
power-of-two bucket count (so ``alt(alt(i)) == i``), bounded eviction
chains with a one-entry victim cache per table (an exhausted chain
parks its in-hand fingerprint there — membership NEVER loses an item).
Like the reference's TTrScalingBloomFilter (and our ScalingBloom),
capacity scales by CHAINING tables: when the newest table refuses an
insert, a new table of double size is appended — membership is
any-table, adds go to the newest, so there are never false negatives.
All choices (hashing, eviction victim) are deterministic, making crawl
runs reproducible across processes and layouts.

Fingerprint width derives from ``error_rate`` (per-table FP ≈
2·bucket_size / 2^bits): 1e-6 → 32-bit fingerprints (FP ≈ 2e-9/table,
matching the Bloom default's exactness at test scale), looser rates →
16-bit.  ``delete_many`` is
safe only for items that were actually inserted (the standard cuckoo
caveat: deleting a never-inserted item can strip a colliding
fingerprint and create a false negative for its owner).
"""

from __future__ import annotations

import hashlib

import numpy as np

from texrex_ray.state.bloom import chain_history, warn_full

_EMPTY = 0  # fingerprints are forced nonzero


def _hash_item(s: str, fp_bytes: int) -> tuple[int, int]:
    """(64-bit index hash, 16- or 32-bit nonzero fingerprint) — blake2b
    like the Bloom backend: C-implemented, threadless, deterministic."""
    d = hashlib.blake2b(s.encode("utf-8"), digest_size=16).digest()
    h = int.from_bytes(d[:8], "little")
    fp = int.from_bytes(d[8 : 8 + fp_bytes], "little")
    return h, fp or 1


def _fp_offset(fp: int, mask: int) -> int:
    """Bucket-index offset derived from the fingerprint (MurmurHash-style
    integer mix), XORed onto the index — partners are symmetric."""
    x = (fp * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 13
    return x & mask


class _CuckooTable:
    __slots__ = ("n_buckets", "bucket_size", "max_kicks", "fp_bytes",
                 "slots", "count", "full", "victim", "_kick_state")

    def __init__(self, n_buckets: int, bucket_size: int = 4,
                 max_kicks: int = 500, fp_bytes: int = 4):
        assert n_buckets & (n_buckets - 1) == 0, "bucket count must be 2^k"
        self.n_buckets = n_buckets
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.fp_bytes = fp_bytes
        dtype = np.uint16 if fp_bytes == 2 else np.uint32
        self.slots = np.zeros((n_buckets, bucket_size), dtype=dtype)
        self.count = 0
        self.full = False
        self.victim: tuple[int, int] | None = None  # (bucket, fp) overflow
        self._kick_state = 0x9E3779B9  # deterministic eviction choices

    @property
    def capacity(self) -> int:
        # stop inserting at 95% load — the practical cuckoo bound for b=4
        return int(self.n_buckets * self.bucket_size * 0.95)

    def _partners(self, h: int, fp: int) -> tuple[int, int]:
        mask = self.n_buckets - 1
        i1 = h & mask
        return i1, i1 ^ _fp_offset(fp, mask)

    def contains(self, h: int, fp: int) -> bool:
        i1, i2 = self._partners(h, fp)
        if self.victim is not None and self.victim[1] == fp and self.victim[0] in (i1, i2):
            return True
        return bool((self.slots[i1] == fp).any() or (self.slots[i2] == fp).any())

    def _try_put(self, i: int, fp: int) -> bool:
        row = self.slots[i]
        empty = np.nonzero(row == _EMPTY)[0]
        if len(empty):
            row[empty[0]] = fp
            self.count += 1
            return True
        return False

    def insert(self, h: int, fp: int) -> bool:
        """True ⇒ the item is recorded in THIS table.  False ⇒ nothing was
        stored here; the caller must grow the chain."""
        if self.full or self.count >= self.capacity or self.victim is not None:
            self.full = True
            return False
        i1, i2 = self._partners(h, fp)
        if self._try_put(i1, fp) or self._try_put(i2, fp):
            return True
        # bounded eviction chain, deterministic victim slot (LCG).  The
        # FIRST swap stores the new item; every later swap is relocation.
        mask = self.n_buckets - 1
        i = i2
        for _ in range(self.max_kicks):
            self._kick_state = (self._kick_state * 1103515245 + 12345) & 0x7FFFFFFF
            j = self._kick_state % self.bucket_size
            fp, self.slots[i][j] = int(self.slots[i][j]), fp
            i = i ^ _fp_offset(fp, mask)
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

    def delete(self, h: int, fp: int) -> bool:
        i1, i2 = self._partners(h, fp)
        if self.victim is not None and self.victim[1] == fp and self.victim[0] in (i1, i2):
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

    @property
    def memory_bytes(self) -> int:
        return self.slots.nbytes


class ScalingCuckoo:
    """First-wins membership set with scaling cuckoo tables + deletion."""

    kind = "cuckoo"

    def __init__(
        self,
        initial_capacity: int = 100_000,
        error_rate: float = 1e-6,  # sets fingerprint width (16 vs 32 bits)
        max_memory_mb: int = 1024,
        bucket_size: int = 4,
        max_kicks: int = 500,
    ):
        self.error_rate = error_rate
        self.max_memory_bytes = max_memory_mb * 1024 * 1024
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        # fingerprint width from the requested FP rate: per-table FP ≈
        # 2·bucket_size / 2^bits, so bits ≥ log2(2·b / p)
        self.fp_bytes = 2 if error_rate >= 2 * bucket_size / 65536 else 4
        self.tables: list[_CuckooTable] = [
            _CuckooTable(self._buckets_for(initial_capacity), bucket_size,
                         max_kicks, self.fp_bytes)
        ]
        # read-only history chained from other partitions (hot-host
        # migration): origin partition -> (its n_added, its tables)
        self.history: dict[int, tuple[int, list[_CuckooTable]]] = {}
        self.out_of_memory = False
        self.n_added = 0
        self.n_refused = 0  # adds refused once out_of_memory (reported seen)

    def _buckets_for(self, capacity: int) -> int:
        need = max(1, int(np.ceil(capacity / (self.bucket_size * 0.95))))
        return 1 << int(np.ceil(np.log2(need)))

    @property
    def memory_bytes(self) -> int:
        """Bytes of this filter's own tables — what ``max_memory_mb`` caps.
        Chained history is not counted."""
        return sum(t.memory_bytes for t in self.tables)

    # -- membership ---------------------------------------------------------

    def _contains_one(self, h: int, fp: int) -> bool:
        if any(t.contains(h, fp) for t in self.tables):
            return True
        return bool(self.history) and any(
            t.contains(h, fp) for _, tabs in self.history.values() for t in tabs
        )

    def contains_many(self, items: list[str]) -> np.ndarray:
        out = np.zeros(len(items), dtype=bool)
        for i, s in enumerate(items):
            h, fp = _hash_item(s, self.fp_bytes)
            out[i] = self._contains_one(h, fp)
        return out

    def add_if_new(self, items: list[str]) -> np.ndarray:
        """Per item: True if it was NEW (and is now recorded); first-wins.
        Intra-batch duplicates resolve in list order, like the Bloom."""
        out = np.zeros(len(items), dtype=bool)
        for i, s in enumerate(items):
            h, fp = _hash_item(s, self.fp_bytes)
            if self._contains_one(h, fp):
                continue
            if self.out_of_memory:
                self._refuse()  # report as seen (Bloom parity)
                continue
            if not self.tables[-1].insert(h, fp):
                new_buckets = self.tables[-1].n_buckets * 2
                projected = (
                    self.memory_bytes
                    + new_buckets * self.bucket_size * self.fp_bytes
                )
                if projected > self.max_memory_bytes:
                    self.out_of_memory = True
                    self._refuse()
                    continue
                self.tables.append(
                    _CuckooTable(new_buckets, self.bucket_size, self.max_kicks,
                                 self.fp_bytes)
                )
                assert self.tables[-1].insert(h, fp)  # fresh table: cannot fail
            out[i] = True
            self.n_added += 1
        return out

    def _refuse(self) -> None:
        if not self.n_refused:
            warn_full(self)
        self.n_refused += 1

    def delete_many(self, items: list[str]) -> np.ndarray:
        """Remove one copy per item (newest table first).  Only call for
        items previously inserted (standard cuckoo deletion contract)."""
        out = np.zeros(len(items), dtype=bool)
        tables = self.tables[::-1] + [
            t for _, tabs in self.history.values() for t in tabs
        ]
        for i, s in enumerate(items):
            h, fp = _hash_item(s, self.fp_bytes)
            for t in tables:
                if t.delete(h, fp):
                    out[i] = True
                    self.n_added -= 1
                    break
        return out

    # -- chaining (hot-shard migration, ScalingBloom API parity) -------------

    def freeze(self) -> None:
        """Mark every table full: the next add opens a new table."""
        for t in self.tables:
            t.full = True

    def chain_base(self, base: "ScalingCuckoo", origin: int = 0) -> None:
        """Chain ``base`` — partition ``origin``'s filter — as read-only
        history keyed by origin (see ``ScalingBloom.chain_base``)."""
        chain_history(self.history, base.history, origin, base.n_added, base.tables)

    # -- snapshot / restore (checkpointing) ----------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "error_rate": self.error_rate,
            "max_memory_bytes": self.max_memory_bytes,
            "bucket_size": self.bucket_size,
            "max_kicks": self.max_kicks,
            "fp_bytes": self.fp_bytes,
            "n_added": self.n_added,
            "out_of_memory": self.out_of_memory,
            "n_refused": self.n_refused,
            "tables": [_table_snapshot(t) for t in self.tables],
            "history": {
                o: {"n_added": n, "tables": [_table_snapshot(t) for t in tabs]}
                for o, (n, tabs) in self.history.items()
            },
        }

    @classmethod
    def restore(cls, snap: dict) -> "ScalingCuckoo":
        c = cls.__new__(cls)
        c.error_rate = snap["error_rate"]
        c.max_memory_bytes = snap["max_memory_bytes"]
        c.bucket_size = snap["bucket_size"]
        c.max_kicks = snap["max_kicks"]
        c.fp_bytes = snap["fp_bytes"]
        c.n_added = snap["n_added"]
        c.out_of_memory = snap["out_of_memory"]
        c.n_refused = snap["n_refused"]
        c.tables = [c._table_restore(t) for t in snap["tables"]]
        c.history = {
            o: (h["n_added"], [c._table_restore(t) for t in h["tables"]])
            for o, h in snap.get("history", {}).items()
        }
        return c

    def _table_restore(self, t: dict) -> _CuckooTable:
        dtype = np.uint16 if self.fp_bytes == 2 else np.uint32
        tab = _CuckooTable(t["n_buckets"], self.bucket_size, self.max_kicks,
                           self.fp_bytes)
        tab.slots = np.frombuffer(t["slots"], dtype=dtype).reshape(
            t["n_buckets"], self.bucket_size
        ).copy()
        tab.count = t["count"]
        tab.full = t["full"]
        tab.victim = tuple(t["victim"]) if t["victim"] is not None else None
        tab._kick_state = t["kick_state"]
        return tab


def _table_snapshot(t: _CuckooTable) -> dict:
    return {
        "n_buckets": t.n_buckets,
        "count": t.count,
        "full": t.full,
        "victim": t.victim,
        "kick_state": t._kick_state,
        "slots": t.slots.tobytes(),
    }
