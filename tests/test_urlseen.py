"""The URL-seen scaling chain (``state/urlseen.py``) under both segment
types: growth never overfills a segment, batches that fit one segment keep
their layout, and the memory cap and history work the same way for both.

Ray-free: runs under ``pytest --noconftest``.
"""

import hashlib

import pytest

from texrex_ray.state.bloom import ScalingBloom
from texrex_ray.state.cuckoo import ScalingCuckoo
from texrex_ray.state.urlseen import restore_url_seen

KINDS = [ScalingBloom, ScalingCuckoo]


def _layout(f) -> tuple[list[int], list[int]]:
    return [s.capacity for s in f.segments], [s.count for s in f.segments]


@pytest.mark.parametrize("cls", KINDS)
def test_large_add_spills_over_doubled_segments(cls):
    f = cls(initial_capacity=64)
    urls = [f"http://h/{i}" for i in range(20_000)]
    f.add_if_new(urls)
    caps, counts = _layout(f)
    assert all(n <= c for n, c in zip(counts, caps)), (caps, counts)
    assert f.contains_many(urls).all()
    probes = [f"http://x/{i}" for i in range(2_000)]
    assert f.contains_many(probes).sum() <= 2


# (kind, segment capacities, segment counts, n_added, blake2b-64 of the
# segments' bytes) for 15,000 keys added in 1024-key chunks into
# capacity 4096 at error rate 0.01 — the q288 / q406 audit shape
CHUNKED = {
    "bloom": ([4096, 8192, 16384], [4090, 8105, 2656], 14851, "833d542b72f41e64"),
    "cuckoo": ([7782, 15564], [7782, 7216], 14998, "0d0b9ae2ce4a2fc5"),
}


@pytest.mark.parametrize("cls", KINDS)
def test_chunked_adds_keep_their_layout(cls):
    f = cls(initial_capacity=4096, error_rate=0.01)
    keys = [f"http://h{i % 97}.example/p{i}" for i in range(15_000)]
    n_added = sum(int(f.add_if_new(keys[i:i + 1024]).sum()) for i in range(0, len(keys), 1024))
    raw = b"".join(s.snapshot()["arr" if cls.kind == "bloom" else "slots"] for s in f.segments)
    digest = hashlib.blake2b(raw, digest_size=8).hexdigest()
    assert (*_layout(f), n_added, digest) == CHUNKED[cls.kind]
    assert n_added == f.n_added


@pytest.mark.parametrize("cls", KINDS)
def test_memory_cap_mid_batch(cls, caplog):
    """A spilling batch stores what fits under the cap, then refuses the
    rest (reported seen, counted, one warning); a restore keeps refusing."""
    f = cls(initial_capacity=64, max_memory_mb=0.01)
    urls = [f"http://h/{i}" for i in range(5_000)]
    with caplog.at_level("WARNING"):
        new = f.add_if_new(urls)
        refused = f.n_refused
        f.add_if_new(["http://h/later"])
    assert f.out_of_memory and 0 < new.sum() < len(urls)
    # every item is stored or refused, but for the odd false positive
    assert f.n_added == new.sum() and len(urls) - 2 <= f.n_added + refused <= len(urls)
    assert f.n_refused == refused + 1
    assert f.memory_bytes <= f.max_memory_bytes
    assert f.contains_many([u for u, n in zip(urls, new) if n]).all()
    assert sum("refusing adds" in r.getMessage() for r in caplog.records) == 1
    g = restore_url_seen(f.snapshot())
    assert not g.add_if_new(["http://h/fresh"]).any() and g.n_refused == f.n_refused + 1


@pytest.mark.parametrize("cls", KINDS)
def test_chain_base_skips_own_origin(cls):
    a, b = cls(initial_capacity=64), cls(initial_capacity=64)
    a.add_if_new([f"a{i}" for i in range(300)])
    b.add_if_new([f"b{i}" for i in range(300)])
    b.chain_base(a, origin=0)
    a.chain_base(b, origin=1, own=0)  # b's history holds a copy of a
    assert sorted(a.history) == [1]
    assert a.contains_many([f"b{i}" for i in range(300)]).all()
    assert not a.add_if_new(["a1", "b1"]).any()
    assert a.add_if_new(["c1"]).all()

