"""Deterministic 64-bit hashing, MinHash, SimHash, document fingerprints.

The reference fingerprints documents with 100 Rabin64 hashes over all token
5-grams (ref: trshingler.pas:97-150, trrabinhash.pas:111-268, fixed
polynomial table trpoly64.pas).  We keep the *shape* of that scheme — k
deterministic 64-bit hash functions, min over all n-grams — but build it
from a single fast vectorized base hash (polars' stable xxhash-based
``Series.hash``) composed with k affine permutations ``h_i = a_i*h + b_i
(mod 2^64)``, the standard MinHash construction.  This is fully vectorized:
one hash pass over the n-grams, then an (n × k) numpy min-reduction.

Everything here is deterministic across processes and machines (no
PYTHONHASHSEED dependence).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import polars as pl

U64 = np.uint64
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def permutation_params(k: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """k affine permutation params (odd multipliers a_i, offsets b_i)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 63, size=k, dtype=np.uint64) * U64(2) + U64(1)
    b = rng.integers(0, 1 << 63, size=k, dtype=np.uint64)
    return a, b


def hash64(strings: list[str] | pl.Series, seed: int = 0) -> np.ndarray:
    """Fast vectorized 64-bit hash of strings (polars xxhash).

    Deterministic across processes/machines for a FIXED polars version, but
    polars does not guarantee hash stability across library upgrades — use
    only for transient, in-run keying (shuffle bucketing, LSH band keys).
    Anything persisted or used for partition routing that must survive a
    resume uses ``stable_hash64`` / the Rabin fingerprints instead.

    polars is imported here, not at module level: the crawl workers only
    need ``stable_hash64`` and stay ~21 MB lighter without it.
    """
    import polars as pl

    s = strings if isinstance(strings, pl.Series) else pl.Series(strings, dtype=pl.Utf8)
    return s.hash(seed=seed).to_numpy().astype(np.uint64)


def stable_hash64(strings: list[str], seed: int = 0) -> np.ndarray:
    """Version-stable 64-bit hash (blake2b, like ScalingBloom's bit hashing).

    Used for host → frontier-partition routing: a checkpoint resumed after a
    library upgrade must keep every host pinned to the same partition, or
    politeness state is orphaned and Bloom first-wins segments are missed.
    Per-item C-call cost (~1 µs) is fine for the per-round host lists; do
    not use it for per-gram hashing.
    """
    salt = int(seed).to_bytes(8, "little")
    out = np.empty(len(strings), dtype=np.uint64)
    for i, s in enumerate(strings):
        d = hashlib.blake2b(s.encode("utf-8"), digest_size=8, salt=salt).digest()
        out[i] = int.from_bytes(d, "little")
    return out


def md5_lower64(strings: list[str]) -> np.ndarray:
    """Lower 64 bits of md5 (little-endian) as uint64.

    Python twin of DuckDB's ``md5_number_lower`` (the q47/q60 split/mixture
    hash), so membership sets built here are recomputable in SQL.  Stable
    across versions and machines — safe for persisted indexes
    (state/corpus_index.py)."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little") for s in strings),
        dtype=np.uint64,
        count=len(strings),
    )


def ngrams(tokens: list[str], n: int = 5, pad_to: int = 9) -> list[str]:
    """Concatenated token n-grams, left-padded to ≥``pad_to`` chars.

    Mirrors the reference's shingle construction (ref: trshingler.pas:105-130:
    concatenate 5 consecutive tokens, pad short shingles).  A document with
    fewer than ``n`` tokens yields one single padded shingle of all tokens.
    """
    if not tokens:
        return []
    if len(tokens) < n:
        g = "".join(tokens)
        return [g.rjust(pad_to, "_")]
    joined = ["".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    return [g if len(g) >= pad_to else g.rjust(pad_to, "_") for g in joined]


def minhash_from_hashes(base: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k-minhash signature from base hashes: min_i (a*h_i + b) per column."""
    if base.size == 0:
        return np.full(a.shape[0], _MASK64, dtype=np.uint64)
    # (n, k) product under uint64 wraparound — numpy wraps mod 2^64 natively.
    with np.errstate(over="ignore"):
        m = base[:, None] * a[None, :] + b[None, :]
    return m.min(axis=0)


def minhash_signatures(
    token_lists: list[list[str]], k: int = 100, n: int = 5, seed: int = 42
) -> np.ndarray:
    """(num_docs, k) minhash signatures over token n-grams, one hash pass.

    All documents' n-grams are hashed in a single polars call; per-document
    signatures come from slab-bounded (a·h+b) min-reductions (one giant
    (n_grams, k) matrix would cost hundreds of MB of fresh pages per batch —
    page faults dominate on large allocations).
    """
    a, b = permutation_params(k, seed)
    grams: list[str] = []
    offsets = [0]
    for toks in token_lists:
        grams.extend(ngrams(toks, n=n))
        offsets.append(len(grams))
    out = np.full((len(token_lists), k), _MASK64, dtype=np.uint64)
    if not grams:
        return out
    base = hash64(grams)
    slab_rows = 8192
    slab = np.empty((slab_rows, k), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for d in range(len(token_lists)):
            lo, hi = offsets[d], offsets[d + 1]
            if hi <= lo:
                continue
            sig = None
            for s0 in range(lo, hi, slab_rows):
                s1 = min(s0 + slab_rows, hi)
                m = slab[: s1 - s0]
                np.multiply(base[s0:s1, None], a[None, :], out=m)
                np.add(m, b[None, :], out=m)
                part = m.min(axis=0)
                sig = part if sig is None else np.minimum(sig, part)
            out[d] = sig
    return out


def simhash64(token_lists: list[list[str]]) -> np.ndarray:
    """64-bit SimHash per document over its token set (weight = count).

    Standard Charikar construction: sum ±1 per bit over token hashes, sign →
    bit.  Vectorized: one hash pass over all tokens, per-doc bit-count
    reduction via np.add.reduceat.
    """
    n_docs = len(token_lists)
    out = np.zeros(n_docs, dtype=np.uint64)
    flat: list[str] = []
    offsets = [0]
    for toks in token_lists:
        flat.extend(toks)
        offsets.append(len(flat))
    if not flat:
        return out
    h = hash64(flat)
    # Bit-plane slabs (64 × ≤64k tokens) with one REUSED buffer: this
    # environment pays ~200 ms/MB for first-touch pages, so any large fresh
    # allocation (full bit matrix, cumsum, reduceat, unpackbits output)
    # dominates; bounded reused buffers + small per-doc sums stay fast.
    one = np.uint64(1)
    slab_cap = 1 << 16
    bitsT = np.empty((64, slab_cap), dtype=np.uint64)
    tmp = np.empty(slab_cap, dtype=np.uint64)
    weights = one << np.arange(64, dtype=np.uint64)
    d = 0
    while d < n_docs:
        lo = offsets[d]
        # group consecutive docs whose spans fit one slab (a single doc
        # larger than the slab is processed alone, slab-by-slab)
        e = d
        while e < n_docs and offsets[e + 1] - lo <= slab_cap:
            e += 1
        if e == d:  # oversized single doc: accumulate plane sums in pieces
            hi = offsets[d + 1]
            ones = np.zeros(64, dtype=np.int64)
            for s0 in range(lo, hi, slab_cap):
                s1 = min(s0 + slab_cap, hi)
                m = s1 - s0
                t = tmp[:m]
                for j in range(64):
                    np.right_shift(h[s0:s1], np.uint64(j), out=t)
                    np.bitwise_and(t, one, out=t)
                    ones[j] += int(t.sum())
            sig = 2 * ones > (hi - lo)
            out[d] = weights[sig].sum()
            d += 1
            continue
        m = offsets[e] - lo
        t = tmp[:m]
        for j in range(64):
            np.right_shift(h[lo : lo + m], np.uint64(j), out=t)
            np.bitwise_and(t, one, out=t)
            bitsT[j, :m] = t
        for dd in range(d, e):
            a0, a1 = offsets[dd] - lo, offsets[dd + 1] - lo
            if a1 > a0:
                ones = bitsT[:, a0:a1].sum(axis=1, dtype=np.int64)
                sig = 2 * ones > (a1 - a0)
                out[dd] = weights[sig].sum()
        d = e
    return out


def hamming64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between uint64 arrays."""
    v = np.bitwise_xor(x, y)
    return np.array([bin(int(t)).count("1") for t in v], dtype=np.int32)


def md5_hex(s: str) -> str:
    """Lower-case hex md5 of the UTF-8 encoding (DuckDB-compatible)."""
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def doc_id_for_url(url: str) -> str:
    """Deterministic 32-hex document id = md5(url).

    The reference appends 4 random hex chars (ref: trdata.pas:1285-1293);
    we deliberately drop them so ids are deterministic and task retries are
    idempotent (SURVEY.md §7.4).
    """
    return hashlib.md5(url.encode("utf-8")).hexdigest()


def simple_fingerprint(raw: bytes, k: int = 64) -> bytes:
    """k bytes sampled at even strides from the raw payload.

    Exact-dup fingerprint semantics of the reference's DuplicateDetector
    (ref: trdata.pas:1195-1211 SimpleFingerprint): k bytes at even strides;
    payloads shorter than k are used whole.
    """
    n = len(raw)
    if n <= k:
        return raw
    idx = (np.arange(k) * (n // k)).astype(np.int64)
    arr = np.frombuffer(raw, dtype=np.uint8)
    return arr[idx].tobytes()


_ROLL_P = np.uint64(1099511628211)
_roll_pows = np.ones(1, dtype=np.uint64)


def _roll_powers(n: int) -> np.ndarray:
    """Cached [p^0, p^1, …, p^(n-1)] mod 2^64 (grown on demand)."""
    global _roll_pows
    if len(_roll_pows) < n:
        m = len(_roll_pows)
        ext = np.empty(n, dtype=np.uint64)
        ext[:m] = _roll_pows
        with np.errstate(over="ignore"):
            for i in range(m, n):
                ext[i] = ext[i - 1] * _ROLL_P
        _roll_pows = ext
    return _roll_pows


def rolling_fingerprints(texts: list[str]) -> np.ndarray:
    """Vectorized polynomial rolling-hash fingerprints, one uint64 per doc.

    ``h = p^n + Σ b_i · p^(n-1-i)  (mod 2^64)`` over the UTF-8 bytes —
    a true Rabin-Karp polynomial hash, so any substring's contribution
    can be rolled in/out with two multiplies (content-defined chunking
    hooks in here).  Unlike byte-serial FNV (~55 µs/KB in Python), the
    whole document reduces with one vector multiply-sum (~0.3 µs/KB).
    """
    blobs = [t.encode("utf-8") for t in texts]
    maxlen = max((len(b) for b in blobs), default=0)
    pows = _roll_powers(maxlen + 1)
    out = np.empty(len(blobs), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, blob in enumerate(blobs):
            n = len(blob)
            if n == 0:
                out[i] = np.uint64(1)
                continue
            b = np.frombuffer(blob, dtype=np.uint8).astype(np.uint64)
            out[i] = (b * pows[n - 1 :: -1][:n]).sum() + pows[n]
    return out


def rolling_fingerprint(s: str, window: int = 64, mod_bits: int = 64) -> int:
    """Scalar convenience wrapper over ``rolling_fingerprints``."""
    return int(rolling_fingerprints([s])[0])
