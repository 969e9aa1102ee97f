"""Round-4 batch R: LOO 1-NN eval, discovery curve, U-shaped attribution."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q216

def test_loo_knn_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import EMB_QUANT

    got = QUERIES["q216_loo_knn_accuracy"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet").sort_values("vec_id")
    Q = np.round(np.stack(emb["embedding"].to_numpy()) * EMB_QUANT).astype(
        np.int64
    )
    ids = emb["vec_id"].to_numpy()
    labels = emb["label"].to_numpy()
    want = {}
    for i in range(len(ids)):
        best = None
        for j in range(len(ids)):
            if i == j:
                continue
            d2 = int(((Q[i] - Q[j]) ** 2).sum())
            key = (d2, int(ids[j]))
            if best is None or key < best[0]:
                best = (key, int(labels[j]))
        la = int(labels[i])
        n, c = want.get(la, (0, 0))
        want[la] = (n + 1, c + (1 if best[1] == la else 0))
    have = {
        int(r["label"]): (int(r["n"]), int(r["n_correct"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert sum(v[0] for v in have.values()) == len(ids)


# ------------------------------------------------------------------- q217

def test_discovery_curve_invariants(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q217_discovery_curve"](SF)
    # windows dense from 0, visits fill every window but possibly the last
    assert got["window_idx"].tolist() == list(range(len(got)))
    # cumulative columns are running sums of the per-window columns
    assert (got["cum_urls"] == got["n_new_urls"].cumsum()).all()
    assert (got["cum_hosts"] == got["n_new_hosts"].cumsum()).all()
    # new <= visits; host discovery saturates at the graph's host count
    assert (got["n_new_urls"] <= got["n_visits"]).all()
    assert int(got["cum_hosts"].iloc[-1]) <= 10
    # discovery rate decays: the first window finds at least as many new
    # hosts as the last
    assert int(got["n_new_hosts"].iloc[0]) >= int(got["n_new_hosts"].iloc[-1])


# ------------------------------------------------------------------- q218

def test_position_attribution_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q218_position_attribution"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    ev = ev.assign(us=us)
    want = {}
    for uid, sub in ev.groupby("user_id"):
        cl = sub[sub["event_type"] == "click"].sort_values(["us", "event_id"])
        pu = sub[sub["event_type"] == "purchase"].sort_values(
            ["us", "event_id"]
        )
        if len(cl) == 0 or len(pu) == 0:
            continue
        groups: dict[int, list[int]] = {}
        for _, c in cl.iterrows():
            nxt = pu[pu["us"] >= c["us"]]
            if len(nxt) == 0:
                continue
            pid = int(nxt.iloc[0]["event_id"])
            groups.setdefault(pid, []).append(int(c["event_id"]))
        for pid, clicks in groups.items():
            m = len(clicks)
            for rn, cid in enumerate(clicks, start=1):
                if m == 1:
                    cr = PPM
                elif m == 2:
                    cr = 500_000
                elif rn in (1, m):
                    cr = 400_000
                elif rn == 2:
                    cr = 200_000 // (m - 2) + 200_000 % (m - 2)
                else:
                    cr = 200_000 // (m - 2)
                want[(pid, cid)] = cr
    have = {
        (int(r["purchase_id"]), int(r["click_id"])): int(r["credit_ppm"])
        for _, r in got.iterrows()
    }
    assert have == want
    # credits sum to exactly PPM per purchase
    per = got.groupby("purchase_id")["credit_ppm"].sum()
    assert (per == PPM).all()
