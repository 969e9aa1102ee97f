"""Round-4 batch VV: DGIM window count, feature-hash census, two choices."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q304

def test_dgim_fuzz_vs_carry_twin_and_bound(ray_session):
    import random
    from collections import deque

    from texrex_ray.pipelines.queries.census_b import DGIM_K, DGIM_WINDOW_US, _dgim_run

    def twin(ts_list):
        levels = {}
        for t in ts_list:
            levels.setdefault(1, deque()).append(t)
            s = 1
            while len(levels.get(s, ())) > DGIM_K:
                levels[s].popleft()
                t1 = levels[s].popleft()
                levels.setdefault(2 * s, deque()).append(t1)
                s *= 2
        if not ts_list:
            return 0, 0, 0
        t_end = ts_list[-1]
        buckets = sorted(
            (ts, sz) for sz, dq in levels.items() for ts in dq
            if ts > t_end - DGIM_WINDOW_US
        )
        if not buckets:
            return 0, 0, 0
        total = sum(sz for _, sz in buckets)
        oldest = buckets[0][1]
        return (total - oldest + oldest // 2 + (oldest % 2),
                len(buckets), oldest)

    random.seed(12)
    W = DGIM_WINDOW_US
    for _ in range(120):
        n = random.randint(0, 160)
        ts = sorted(random.sample(range(1, 40 * W), n)) if n else []
        got = _dgim_run(ts)
        assert got == twin(ts)
        if ts:
            exact = sum(1 for t in ts if t > ts[-1] - W)
            est, _, oldest = got
            assert abs(est - exact) <= (oldest + 1) // 2


def test_dgim_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import DGIM_WINDOW_US, _dgim_run

    got = QUERIES["q304_dgim_window_count"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["ts", "event_type"])
    ev["t"] = ev["ts"].astype("int64")
    want = {}
    for et, sub in ev.groupby("event_type"):
        ts = sorted(int(x) for x in sub["t"])
        est, nb, oldest = _dgim_run(ts)
        exact = int((sub["t"] > ts[-1] - DGIM_WINDOW_US).sum())
        want[et] = (exact, est, nb, oldest)
    have = {
        r["event_type"]: (int(r["exact_w"]), int(r["est_w"]),
                          int(r["n_buckets"]), int(r["oldest_size"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the DGIM guarantee holds on real data too
    assert all(abs(v[1] - v[0]) <= (v[3] + 1) // 2 for v in want.values())
    # sketch memory is logarithmic: buckets << window count
    assert all(v[2] <= 2 * (int(v[0]).bit_length() + 1) + 2
               for v in want.values() if v[0] > 0)


# ------------------------------------------------------------------- q305

def test_feature_hash_query_matches_serial(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import FEATHASH_BUCKETS

    got = QUERIES["q305_feature_hash_census"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    cnt: dict = {}
    for txt in docs["text"]:
        for w in txt.split(" "):
            if w:
                cnt[w] = cnt.get(w, 0) + 1
    toks = sorted(cnt)
    bs = md5_lower64(toks) % np.uint64(FEATHASH_BUCKETS)
    bl: dict = {}
    for tk, b in zip(toks, bs.tolist()):
        d = bl.setdefault(int(b), [0, 0])
        d[0] += 1
        d[1] += cnt[tk]
    want: dict = {}
    for load, occ in bl.values():
        d = want.setdefault(load, [0, 0])
        d[0] += 1
        d[1] += occ
    have = {
        int(r["load"]): [int(r["n_buckets"]), int(r["sum_occurrences"])]
        for _, r in got.iterrows()
    }
    assert have == want
    # conservation: total occurrences across the histogram == corpus tokens
    total_occ = sum(v[1] for v in want.values())
    assert total_occ == sum(cnt.values())


# ------------------------------------------------------------------- q306

def test_p2c_query_matches_serial_and_beats_single(ray_session):
    import hashlib

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import P2C_BUCKETS

    got = QUERIES["q306_power_of_two_choices"](SF)
    ids = sorted(
        int(x) for x in pd.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id"])["doc_id"]
    )

    def h(s):
        return int.from_bytes(hashlib.md5(s.encode()).digest()[8:],
                              "little") % P2C_BUCKETS

    single: dict = {}
    loads: dict = {}
    for i in ids:
        h1, h2 = h(f"{i}:1"), h(f"{i}:2")
        single[h1] = single.get(h1, 0) + 1
        l1, l2 = loads.get(h1, 0), loads.get(h2, 0)
        pick = h1 if (l1 < l2 or (l1 == l2 and h1 <= h2)) else h2
        loads[pick] = loads.get(pick, 0) + 1
    want = {
        "p2c": (max(loads.values()), len(loads),
                sum(v * v for v in loads.values())),
        "single": (max(single.values()), len(single),
                   sum(v * v for v in single.values())),
    }
    have = {
        r["scheme"]: (int(r["max_load"]), int(r["nonempty"]),
                      int(r["sum_sq"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # two choices never loses on the L2 imbalance metric here, and
    # both schemes place every ball exactly once
    assert want["p2c"][2] <= want["single"][2]
    assert sum(loads.values()) == sum(single.values()) == len(ids)
