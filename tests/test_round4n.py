"""Round-4 batch N: gap fill, multi-pattern scan, encoding stats."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q204

def test_gap_fill_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q204_gap_fill"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    day = ev["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
    vc = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    f = pd.DataFrame({"user_id": ev["user_id"], "day": day, "vc": vc})
    want = {}
    for uid, sub in f.groupby("user_id"):
        per = sub.groupby("day")["vc"].agg(["size", "sum"])
        for d in range(int(sub["day"].min()), int(sub["day"].max()) + 1):
            if d in per.index:
                want[(int(uid), d)] = (
                    int(per.loc[d, "size"]), int(per.loc[d, "sum"])
                )
            else:
                want[(int(uid), d)] = (0, 0)
    have = {
        (int(r["user_id"]), int(r["day_idx"])): (
            int(r["n_events"]), int(r["value_c"])
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # per-user series are contiguous: no holes between min and max day
    for uid, sub in got.groupby("user_id"):
        d = np.sort(sub["day_idx"].to_numpy())
        assert (np.diff(d) == 1).all()


# ------------------------------------------------------------------- q205

def test_pattern_counts_match_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import SCAN_PATTERNS

    got = QUERIES["q205_pattern_counts"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for src, sub in docs.groupby("source"):
        for p in SCAN_PATTERNS:
            hits = sum(t.count(p) for t in sub["text"])
            ndocs = sum(1 for t in sub["text"] if p in t)
            want[(src, p)] = (hits, ndocs)
    have = {
        (r["source"], r["pattern"]): (int(r["n_hits"]), int(r["n_docs"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # every (source, pattern) cell is present, even zero-hit ones
    assert len(have) == docs["source"].nunique() * len(SCAN_PATTERNS)


# ------------------------------------------------------------------- q206

def test_encoding_stats_match_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import ENC_FRAG

    got = QUERIES["q206_encoding_stats"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    ev = ev.assign(frag_id=ev["event_id"] // ENC_FRAG).sort_values(
        ["frag_id", "ts", "event_id"]
    )
    want = {}
    for fid, sub in ev.groupby("frag_id"):
        et = sub["event_type"].to_numpy()
        runs = 1 + int((et[1:] != et[:-1]).sum())
        want[int(fid)] = (len(et), runs, int(pd.unique(et).size))
    have = {
        int(r["frag_id"]): (
            int(r["n_rows"]), int(r["n_runs"]), int(r["n_distinct"])
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # sanity: runs bounded by rows, distinct bounded by runs
    for n, runs, nd in have.values():
        assert 1 <= runs <= n
        assert 1 <= nd <= runs
