"""Round-4 batch WW: weighted intervals, Merkle root, CDC dedup."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q307

def test_weighted_dp_beats_greedy_sometimes(ray_session):
    """On a crafted instance the unweighted greedy pick is suboptimal:
    one long cheap interval vs two... here: overlapping high-value."""
    # intervals (start, end, value): greedy-by-finish takes (0,10,1)
    # then (10,20,1) = 2; optimal takes (5,15,100) = 100
    ivs = sorted(((10, 0, 1), (15, 5, 100), (20, 10, 1)))
    ends = [e for e, _, _ in ivs]
    import bisect

    dp = [0] * (len(ivs) + 1)
    for i, (e, s, v) in enumerate(ivs, 1):
        j = bisect.bisect_right(ends, s, 0, i - 1)
        dp[i] = max(dp[i - 1], v + dp[j])
    assert dp[-1] == 100
    # unweighted greedy count would pick 2 intervals with total value 2
    last = -1
    total = 0
    for e, s, v in ivs:
        if s >= last:
            total += v
            last = e
    assert total == 2


def test_wis_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import SESSION_US

    got = QUERIES["q307_weighted_intervals"](SF)
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["ts", "event_id", "user_id", "value"],
    ).sort_values(["ts", "event_id"])
    import bisect

    want = {}
    for uid, sub in ev.groupby("user_id"):
        st = [int(x) for x in sub["ts"].astype("int64")]
        val = [int(round(float(v) * 100)) for v in sub["value"]]
        ivs = sorted(zip([s + SESSION_US for s in st], st, val))
        ends = [e for e, _, _ in ivs]
        dp = [0] * (len(ivs) + 1)
        for i, (e, s, v) in enumerate(ivs, 1):
            j = bisect.bisect_right(ends, s, 0, i - 1)
            dp[i] = max(dp[i - 1], v + dp[j])
        want[int(uid)] = (len(ivs), sum(val), dp[-1])
    have = {
        int(r["user_id"]): (int(r["n_events"]), int(r["total_value_c"]),
                            int(r["best_value_c"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # best is sandwiched: max single value <= best <= total
    assert all(v[2] <= v[1] for v in want.values())


# ------------------------------------------------------------------- q308

def test_merkle_root_properties(ray_session):
    import hashlib

    from texrex_ray.pipelines.queries.census_b import _merkle_root

    a, b, c = (hashlib.md5(x).digest() for x in (b"a", b"b", b"c"))
    # singleton: root == leaf, depth 0
    assert _merkle_root([a]) == (a.hex(), 0)
    # pair: H(a+b)
    h_ab = hashlib.blake2b(a + b, digest_size=16).digest()
    assert _merkle_root([a, b]) == (h_ab.hex(), 1)
    # odd promotion: [a,b,c] -> [H(ab), c] -> H(H(ab)+c)
    want = hashlib.blake2b(h_ab + c, digest_size=16).hexdigest()
    root3, depth3 = _merkle_root([a, b, c])
    assert (root3, depth3) == (want, 2)
    # tamper evidence: flipping any leaf changes the root
    assert _merkle_root([b, a, c])[0] != root3
    assert _merkle_root([]) == ("", 0)


def test_merkle_query_matches_twin(ray_session):
    import hashlib

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q308_merkle_root"](SF).iloc[0]
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"]).sort_values("doc_id")
    leaves = [hashlib.md5(s.encode()).digest() for s in docs["text"]]

    def fold(level, depth):
        if len(level) == 1:
            return level[0], depth
        nxt = [hashlib.blake2b(level[i] + level[i + 1],
                               digest_size=16).digest()
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        return fold(nxt, depth + 1)

    root, depth = fold(leaves, 0)
    assert got["root_hex"] == root.hex()
    assert int(got["n_leaves"]) == len(leaves)
    assert int(got["depth"]) == depth == (len(leaves) - 1).bit_length()


# ------------------------------------------------------------------- q309

def test_cdc_shift_resilience(ray_session):
    """The CDC property fixed-size blocks lack: inserting a prefix
    leaves the tail chunks identical."""
    import hashlib

    from texrex_ray.pipelines.queries.census_b import CDC_BASE, CDC_MASK_MOD, CDC_WINDOW

    MOD = 1 << 64

    def chunk(raw: bytes) -> list[bytes]:
        n = len(raw)
        cuts = set()
        if n >= CDC_WINDOW:
            topw = pow(CDC_BASE, CDC_WINDOW - 1, MOD)
            h = 0
            for j in range(CDC_WINDOW):
                h = (h * CDC_BASE + raw[j]) % MOD
            if h % CDC_MASK_MOD == 0:
                cuts.add(CDC_WINDOW)
            for i in range(1, n - CDC_WINDOW + 1):
                h = ((h - raw[i - 1] * topw) * CDC_BASE
                     + raw[i + CDC_WINDOW - 1]) % MOD
                if h % CDC_MASK_MOD == 0:
                    cuts.add(i + CDC_WINDOW)
        cuts.add(n)
        out, prev = [], 0
        for c in sorted(cuts):
            if c > prev:
                out.append(raw[prev:c])
                prev = c
        return out

    rng = np.random.default_rng(21)
    base = bytes(rng.integers(32, 127, 3000).astype(np.uint8))
    shifted = b"XYZ-PREFIX-" + base
    c1 = chunk(base)
    c2 = chunk(shifted)
    # the tail chunk sets overlap heavily (boundaries resynchronize)
    s1, s2 = set(c1), set(c2)
    assert len(s1 & s2) >= len(s1) * 6 // 10
    # chunks reassemble exactly
    assert b"".join(c1) == base and b"".join(c2) == shifted


def test_cdc_query_matches_scalar_twin(ray_session):
    import hashlib

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import CDC_BASE, CDC_MASK_MOD, CDC_WINDOW

    got = QUERIES["q309_cdc_dedup"](SF).iloc[0]
    MOD = 1 << 64
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    occ: dict = {}
    clen: dict = {}
    n_chunks = 0
    topw = pow(CDC_BASE, CDC_WINDOW - 1, MOD)
    for txt in docs["text"]:
        raw = txt.encode()
        n = len(raw)
        cuts = set()
        if n >= CDC_WINDOW:
            h = 0
            for j in range(CDC_WINDOW):
                h = (h * CDC_BASE + raw[j]) % MOD
            if h % CDC_MASK_MOD == 0:
                cuts.add(CDC_WINDOW)
            for i in range(1, n - CDC_WINDOW + 1):
                h = ((h - raw[i - 1] * topw) * CDC_BASE
                     + raw[i + CDC_WINDOW - 1]) % MOD
                if h % CDC_MASK_MOD == 0:
                    cuts.add(i + CDC_WINDOW)
        cuts.add(n)
        prev = 0
        for c in sorted(cuts):
            if c > prev:
                piece = raw[prev:c]
                k = hashlib.md5(piece).hexdigest()
                occ[k] = occ.get(k, 0) + 1
                clen[k] = len(piece)
                n_chunks += 1
                prev = c
    want = (
        n_chunks, len(occ), sum(v - 1 for v in occ.values()),
        sum((v - 1) * clen[k] for k, v in occ.items()),
    )
    have = (int(got["n_chunks"]), int(got["n_distinct"]),
            int(got["dup_chunks"]), int(got["dup_chars"]))
    assert have == want
    assert want[0] >= want[1] > 0
