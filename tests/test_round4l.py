"""Round-4 batch L: weighted Jaccard, churn labels, SCD2 intervals."""

import re
from collections import Counter

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q198

def test_weighted_jaccard_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q198_weighted_jaccard"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    tok = re.compile(r"[a-z]+")
    hists: dict[str, Counter] = {}
    for _, r in docs.iterrows():
        hists.setdefault(r["source"], Counter()).update(
            tok.findall(r["text"].lower())
        )
    srcs = sorted(hists)
    want = {}
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            ha, hb = hists[a], hists[b]
            smin = sum(min(ha[t], hb[t]) for t in set(ha) | set(hb))
            smax = sum(max(ha[t], hb[t]) for t in set(ha) | set(hb))
            want[(a, b)] = smin * PPM // smax
    have = {
        (r["src_a"], r["src_b"]): int(r["wjacc_ppm"]) for _, r in got.iterrows()
    }
    assert have == want
    # weighted Jaccard is bounded by 1 and below unweighted containment
    assert all(0 <= v <= PPM for v in have.values())


# ------------------------------------------------------------------- q199

def test_churn_labels_match_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import CHURN_HORIZON_US

    got = QUERIES["q199_churn_labels"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    t_split = int(us.max()) - CHURN_HORIZON_US
    day = ev["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
    vc = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    f = pd.DataFrame(
        {"user_id": ev["user_id"], "us": us, "day": day, "vc": vc}
    )
    pre = f[f["us"] < t_split]
    post_users = set(f[f["us"] >= t_split]["user_id"])
    want = {}
    for uid, sub in pre.groupby("user_id"):
        want[int(uid)] = (
            len(sub), int(sub["vc"].sum()), sub["day"].nunique(),
            0 if uid in post_users else 1,
        )
    have = {
        int(r["user_id"]): (
            int(r["n_past"]), int(r["value_past_c"]),
            int(r["active_days_past"]), int(r["churned"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want


def test_churn_labels_no_leakage(ray_session):
    """Features must be computable from pre-split data alone: deleting
    every post-split event must not change any feature column."""
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import CHURN_HORIZON_US

    got = QUERIES["q199_churn_labels"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    t_split = int(us.max()) - CHURN_HORIZON_US
    pre = ev[us < t_split]
    n = pre.groupby("user_id").size()
    for _, r in got.iterrows():
        assert int(r["n_past"]) == int(n[r["user_id"]])


# ------------------------------------------------------------------- q200

def test_scd_intervals_match_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q200_scd_intervals"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    want = []
    for uid, sub in ev.assign(us=us).groupby("user_id"):
        runs = []
        for t, u in zip(sub["event_type"], sub["us"]):
            if runs and runs[-1][0] == t:
                runs[-1][2] += 1
                runs[-1][3] = u
            else:
                runs.append([t, int(u), 1, int(u)])
        last_us = int(sub["us"].iloc[-1])
        for i, (t, frm, n, _) in enumerate(runs):
            to = runs[i + 1][1] if i + 1 < len(runs) else last_us
            want.append((int(uid), i, t, frm, to, n))
    have = list(
        got[
            ["user_id", "run_idx", "event_type", "valid_from_us",
             "valid_to_us", "n_events"]
        ].itertuples(index=False, name=None)
    )
    assert have == want
    # intervals tile each user's timeline without overlap
    for _, sub in got.groupby("user_id"):
        frm = sub["valid_from_us"].to_numpy()
        to = sub["valid_to_us"].to_numpy()
        assert (to[:-1] == frm[1:]).all()
        assert (to >= frm).all()
