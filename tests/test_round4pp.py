"""Round-4 batch PP: Aho-Corasick census, k-core, Bloom FPR audit."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q286

def test_aho_corasick_overlap_semantics(ray_session):
    from texrex_ray.functions.multimatch import AhoCorasick

    ac = AhoCorasick(["aa", "a", "aab"])
    # "aaab": 'a' x3, 'aa' overlapping x2, 'aab' x1
    assert ac.count("aaab").tolist() == [2, 3, 1]
    # nested patterns all fire at their end positions
    ac2 = AhoCorasick(["tab", "table", "a"])
    assert ac2.count("a table").tolist() == [1, 1, 2]
    assert ac2.count("").tolist() == [0, 0, 0]


def test_aho_corasick_matches_regex_twin(ray_session):
    """Automaton counts == overlapping-regex lookahead counts on real
    document text (independent engine, same overlap semantics)."""
    import re

    from texrex_ray.functions.multimatch import AhoCorasick
    from texrex_ray.pipelines.queries.census_a import AC_PATTERNS

    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["text"]).head(80)
    ac = AhoCorasick(AC_PATTERNS)
    for txt in docs["text"]:
        got = ac.count(txt).tolist()
        want = [len(re.findall(f"(?={re.escape(p)})", txt))
                for p in AC_PATTERNS]
        assert got == want


def test_aho_corasick_query_matches_serial(ray_session):
    import re

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import AC_PATTERNS

    got = QUERIES["q286_aho_corasick"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    want = {}
    for p in AC_PATTERNS:
        rx = re.compile(f"(?={re.escape(p)})")
        per_doc = docs["text"].map(lambda t, rx=rx: len(rx.findall(t)))
        if per_doc.sum() > 0:
            want[p] = (int((per_doc > 0).sum()), int(per_doc.sum()))
    have = {r["pattern"]: (int(r["n_docs"]), int(r["n_occ"]))
            for _, r in got.iterrows()}
    assert have == want
    # substring containment implies count dominance: #a >= #an >= #scan
    if "a" in want and "an" in want:
        assert want["a"][1] >= want["an"][1]
    if "tab" in want and "table" in want:
        assert want["tab"][1] >= want["table"][1]


# ------------------------------------------------------------------- q287

def test_kcore_known_graph(ray_session):
    from texrex_ray.ops.graph import kcore_sequential

    # K4 (core 3) with a 2-path tail and a pendant
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("d", "e"), ("e", "f"), ("f", "d"), ("f", "g")]
    core = kcore_sequential(edges)
    assert {v: core[v] for v in "abcd"} == {v: 3 for v in "abcd"}
    assert core["e"] == core["f"] == 2  # the d-e-f triangle is a 2-core
    assert core["g"] == 1
    # self-loops ignored
    assert kcore_sequential([("x", "x"), ("x", "y")]) == {"x": 1, "y": 1}


def test_kcore_distributed_matches_peeling(ray_session):
    import random

    import ray.data

    from texrex_ray.ops.graph import kcore_int, kcore_sequential

    random.seed(23)
    nodes = [f"n{i}" for i in range(50)]
    edges = list({tuple(sorted(random.sample(nodes, 2)))
                  for _ in range(180)})
    # add reciprocal duplicates + self loops: must collapse/drop
    noisy = edges + [(b, a) for a, b in edges[:20]] + [("n0", "n0")]
    seq = kcore_sequential(noisy)
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in noisy])
    got = kcore_int(ds)
    assert dict(zip(got["node"], got["core"])) == seq


def test_kcore_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q287_kcore"](SF)
    fx = pd.read_parquet("/root/repo/tests/fixtures/oracle/kcore_fixture.parquet")
    want = fx["core"].value_counts().sort_index()
    have = dict(zip(got["core"], got["n_nodes"]))
    assert have == {int(k): int(v) for k, v in want.items()}
    # coreness <= degree invariant holds on the fixture graph
    e = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet")
    und = pd.concat([e, e.rename(columns={"src": "dst", "dst": "src"})])
    und = und[und["src"] != und["dst"]].drop_duplicates()
    deg = und.groupby("src").size()
    cm = dict(zip(fx["node"], fx["core"]))
    assert all(cm[v] <= d for v, d in deg.items())


# ------------------------------------------------------------------- q288

def test_bloom_audit_query_matches_pyint_twin(ray_session):
    """Ray/numpy bloom audit == pure-Python-int bit-set twin at
    sf0.001 (fresh, independent of the committed sf0.01 fixture)."""
    import hashlib
    import math

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import (
        BLOOM_AUDIT_CAP, BLOOM_AUDIT_CHUNK, BLOOM_AUDIT_ERR, BLOOM_AUDIT_PROBES,
    )

    got = QUERIES["q288_bloom_fpr_audit"](SF)

    def hpair(s):
        d = hashlib.blake2b(s.encode(), digest_size=16).digest()
        return (int.from_bytes(d[:8], "little"),
                int.from_bytes(d[8:], "little") | 1)

    def seg_params(cap):
        bits = int(math.ceil(-cap * math.log(BLOOM_AUDIT_ERR)
                             / (math.log(2) ** 2))) + 1
        return bits, max(1, int(math.ceil(math.log(2) * bits / cap)))

    segs = []

    def new_seg(cap):
        bits, k = seg_params(cap)
        segs.append({"cap": cap, "bits": bits, "k": k, "set": set(),
                     "count": 0})

    new_seg(BLOOM_AUDIT_CAP)

    def pos(seg, h1, h2):
        return [((h1 + i * h2) % 2**64) % seg["bits"]
                for i in range(seg["k"])]

    def contains(h1, h2):
        return any(all(p in s["set"] for p in pos(s, h1, h2)) for s in segs)

    orders = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey"])
    keys = [f"u:{k}" for k in sorted(int(x) for x in orders["o_orderkey"])]
    n_added = 0
    for i in range(0, len(keys), BLOOM_AUDIT_CHUNK):
        fresh = [k for k in keys[i:i + BLOOM_AUDIT_CHUNK]
                 if not contains(*hpair(k))]
        tail = segs[-1]
        if tail["count"] + len(fresh) > tail["cap"]:
            new_seg(tail["cap"] * 2)
            tail = segs[-1]
        for k in fresh:
            h1, h2 = hpair(k)
            tail["set"].update(pos(tail, h1, h2))
        tail["count"] += len(fresh)
        n_added += len(fresh)
    n_fp = sum(contains(*hpair(f"x:{i}"))
               for i in range(BLOOM_AUDIT_PROBES))
    r = got.iloc[0]
    assert int(r["n_keys"]) == len(keys)
    assert int(r["n_added"]) == n_added
    assert int(r["n_segments"]) == len(segs)
    assert int(r["total_bits"]) == sum(s["bits"] for s in segs)
    assert int(r["total_set_bits"]) == sum(len(s["set"]) for s in segs)
    assert int(r["n_fp"]) == n_fp
    assert int(r["fpr_ppm"]) == n_fp * 1_000_000 // BLOOM_AUDIT_PROBES
    # the audit must show a real but sane FPR: below 10x the design
    # error of the chain, above zero only if probes actually collide
    assert 0 <= int(r["n_fp"]) < BLOOM_AUDIT_PROBES // 10
    # no true key may probe negative (zero false negatives by design)
    from texrex_ray.state.bloom import ScalingBloom

    b = ScalingBloom(initial_capacity=BLOOM_AUDIT_CAP,
                     error_rate=BLOOM_AUDIT_ERR)
    for i in range(0, len(keys), BLOOM_AUDIT_CHUNK):
        b.add_if_new(keys[i:i + BLOOM_AUDIT_CHUNK])
    assert b.contains_many(keys).all()
