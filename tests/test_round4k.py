"""Round-4 batch K: readability scoring, peak concurrency, redirect
resolution."""

import hashlib
import re

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q195

def test_readability_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q195_readability"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for _, r in docs.iterrows():
        t = r["text"]
        w = len(re.findall(r"[A-Za-z]+", t))
        s = max(len(re.findall(r"[.!?]+", t)), 1)
        syl = len(re.findall(r"[aeiouAEIOU]+", t))
        if w == 0:
            continue
        want[int(r["doc_id"])] = (
            w, s, syl, 206835 - 1015 * w // s - 84600 * syl // w
        )
    have = {
        int(r["doc_id"]): (
            int(r["words"]), int(r["sentences"]), int(r["syllables"]),
            int(r["flesch_milli"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want


# ------------------------------------------------------------------- q196

def test_peak_concurrency_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q196_peak_concurrency"](SF)
    sess = QUERIES["q98_sessionization"](SF)
    bounds = sorted(
        [(int(t), 1) for t in sess["start_us"]]
        + [(int(t), -1) for t in sess["end_us"]],
        key=lambda p: (p[0], -p[1]),  # starts before ends at equal ts
    )
    c, peak, peak_ts = 0, -1, None
    for ts, d in bounds:
        c += d
        if c > peak:
            peak, peak_ts = c, ts
    assert int(got["peak"].iloc[0]) == peak
    assert int(got["peak_ts_us"].iloc[0]) == peak_ts
    assert int(got["n_sessions"].iloc[0]) == len(sess)
    # peak is at least 1 and at most the session count
    assert 1 <= peak <= len(sess)


# ------------------------------------------------------------------- q197

def test_redirect_resolution_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import (
        _REDIRECT_FIXTURE, _REDIRECT_ROUNDS,
    )

    got = QUERIES["q197_redirect_resolution"](SF)

    def bucket(u):
        return int.from_bytes(hashlib.md5(u.encode()).digest()[8:], "little") % 10

    ed = pd.read_parquet(_REDIRECT_FIXTURE)
    tgt = ed[[bucket(u) < 3 for u in ed["src"]]].groupby("src")["dst"].min()
    nodes = sorted(set(ed["src"]) | set(ed["dst"]))
    cap = 2 ** _REDIRECT_ROUNDS
    want = {}
    for n in nodes:
        cur, hops = n, 0
        while cur in tgt.index and hops <= cap:
            cur = tgt[cur]
            hops += 1
        if cur in tgt.index or hops > cap:
            want[n] = ("<cycle>", -1)
        else:
            want[n] = (cur, hops)
    have = {
        r["src_node"]: (r["final_node"], int(r["hops"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # terminals resolve to themselves with 0 hops
    zero = got[got["hops"] == 0]
    assert (zero["src_node"] == zero["final_node"]).all()
