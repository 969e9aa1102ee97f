"""Round-4 batch HH: heavy hitters, rollup revenue, funnel."""

import re
from collections import Counter

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------------------------- q262

def test_heavy_hitters_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.census_a import MG_K

    got = QUERIES["q262_misra_gries"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    c: Counter = Counter()
    n = 0
    for t in docs["text"]:
        ws = TOK.findall(t.lower())
        n += max(len(ws) - 1, 0)
        c.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
    want = {
        g: (cnt, cnt * PPM // n)
        for g, cnt in c.items()
        if cnt * (MG_K + 1) > n
    }
    have = {
        r["bigram"]: (int(r["n_count"]), int(r["share_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the threshold must land inside the distribution: nonempty proper subset
    assert 0 < len(want) < len(c)


def test_mg_prune_superset_guarantee(ray_session):
    # the per-batch MG prune keeps any locally-heavy key
    from texrex_ray.pipelines.queries.census_a import MG_K

    rng = np.random.default_rng(7)
    # one dominant key + MG_K+200 uniform distractors
    stream = ["hot"] * 2000 + [f"k{i}" for i in rng.integers(0, MG_K + 200, 5000)]
    c = Counter(stream)
    cut = sorted(c.values(), reverse=True)[MG_K]
    kept = {k for k, v in c.items() if v - cut > 0}
    assert "hot" in kept and len(kept) <= MG_K


# ------------------------------------------------------------------- q263

def test_rollup_revenue_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q263_rollup_revenue"](SF)
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    nat = pd.read_parquet(f"{SF}/nation.parquet")
    reg = pd.read_parquet(f"{SF}/region.parquet")
    base = (
        orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nat, left_on="c_nationkey", right_on="n_nationkey")
        .merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    )
    base["cents"] = [int(round(x * 100)) for x in base["o_totalprice"]]
    want = {}
    for (r, nm), sub in base.groupby(["r_name", "n_name"]):
        want[(r, nm)] = (sub["cents"].sum(), len(sub))
    for r, sub in base.groupby("r_name"):
        want[(r, "*ALL*")] = (sub["cents"].sum(), len(sub))
    want[("*ALL*", "*ALL*")] = (base["cents"].sum(), len(base))
    have = {
        (row["r_name"], row["n_name"]): (int(row["revenue_c"]), int(row["n_orders"]))
        for _, row in got.iterrows()
    }
    assert have == want
    # internal consistency: leaves sum to each region subtotal
    for (r, nm), (rev, cnt) in want.items():
        if nm == "*ALL*" and r != "*ALL*":
            leaves = [v for (rr, nn), v in want.items() if rr == r and nn != "*ALL*"]
            assert sum(v[0] for v in leaves) == rev


# ------------------------------------------------------------------- q264

def test_funnel_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q264_funnel_ordered"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    ev["us"] = ev["ts"].astype("int64")
    t1, t2, t3 = {}, {}, {}
    for u, sub in ev.groupby("user_id"):
        views = sub.loc[sub["event_type"] == "view", "us"]
        if not len(views):
            continue
        t1[u] = views.min()
        clicks = sub.loc[(sub["event_type"] == "click") & (sub["us"] > t1[u]), "us"]
        if not len(clicks):
            continue
        t2[u] = clicks.min()
        purch = sub.loc[(sub["event_type"] == "purchase") & (sub["us"] > t2[u]), "us"]
        if len(purch):
            t3[u] = purch.min()
    r = got.iloc[0]
    assert int(r["n_users"]) == ev["user_id"].nunique()
    assert int(r["n_view"]) == len(t1)
    assert int(r["n_click_after"]) == len(t2)
    assert int(r["n_purchase_after"]) == len(t3)
    assert int(r["click_ppm"]) == len(t2) * PPM // len(t1)
    assert int(r["purchase_ppm"]) == len(t3) * PPM // len(t2)
    # funnel is monotone non-increasing
    assert len(t1) >= len(t2) >= len(t3) > 0
