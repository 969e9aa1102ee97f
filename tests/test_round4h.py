"""Round-4 batch H: Kaplan-Meier survival, Mann-Whitney U, Markov
stationary distribution."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q186

def test_kaplan_meier_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q186_kaplan_meier"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    day = ev["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
    u = pd.DataFrame({"user_id": ev["user_id"], "day": day}).groupby(
        "user_id"
    )["day"].agg(["min", "max"])
    gmax = int(u["max"].max())
    dur = (u["max"] - u["min"]).astype(int)
    cens = (u["max"] == gmax).astype(int)
    s = PPM
    want = []
    for t in sorted(dur.unique()):
        d_t = int(((dur == t) & (cens == 0)).sum())
        if d_t == 0:
            continue
        n_t = int((dur >= t).sum())
        s = s * (n_t - d_t) // n_t
        want.append((t, n_t, d_t, s))
    have = list(
        got[["t_days", "n_risk", "n_events", "surv_ppm"]].itertuples(
            index=False, name=None
        )
    )
    assert have == want
    # survival is monotone non-increasing and within [0, PPM]
    sv = got["surv_ppm"].to_numpy()
    assert (np.diff(sv) <= 0).all()
    assert (sv >= 0).all() and (sv <= PPM).all()


def test_kaplan_meier_no_censoring_hits_zero(ray_session):
    """If every user dies (no user active on the global last day except
    the longest-lived), the curve's last step covers all remaining
    risk; with censoring it stays positive.  Structural check: n_risk
    at the first event time equals the number of users minus those
    with shorter (zero-death) durations."""
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q186_kaplan_meier"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    n_users = ev["user_id"].nunique()
    assert (got["n_risk"] <= n_users).all()
    assert (got["n_events"] >= 1).all()
    assert (got["n_risk"] >= got["n_events"]).all()


# ------------------------------------------------------------------- q187

def test_mannwhitney_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q187_mannwhitney"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    srcs = sorted(docs["source"].unique())
    want = {}
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            va = docs[docs["source"] == a]["n_chars"].to_numpy()
            vb = docs[docs["source"] == b]["n_chars"].to_numpy()
            comb = pd.Series(np.concatenate([va, vb]))
            r2 = (comb.rank(method="average") * 2).astype(int).to_numpy()
            r2a = int(r2[: len(va)].sum())
            na, nb = len(va), len(vb)
            u2a = r2a - na * (na + 1)
            want[(a, b)] = (na, nb, min(u2a, 2 * na * nb - u2a))
    have = {
        (r["src_a"], r["src_b"]): (int(r["n_a"]), int(r["n_b"]), int(r["u2_min"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # U is bounded by n_a*n_b (u2 by 2*n_a*n_b) and symmetric-min
    for (_, _), (na, nb, u2) in have.items():
        assert 0 <= u2 <= na * nb  # min(U2a,U2b) <= na*nb exactly


# ------------------------------------------------------------------- q188

def test_markov_stationary_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import _MARKOV_ITERS, PPM

    got = QUERIES["q188_markov_stationary"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    nxt = ev.groupby("user_id")["event_type"].shift(-1)
    keep = nxt.notna()
    pairs = pd.DataFrame({"f": ev["event_type"][keep], "t": nxt[keep]})
    counts = pairs.groupby(["f", "t"]).size()
    types = sorted(ev["event_type"].unique())
    idx = {t: i for i, t in enumerate(types)}
    n = len(types)
    M = [[0] * n for _ in range(n)]
    tot = counts.groupby("f").sum()
    for (f, t), c in counts.items():
        M[idx[f]][idx[t]] = int(c) * PPM // int(tot[f])
    for i, t in enumerate(types):
        if t not in tot.index:
            M[i][i] = PPM
    pi = [PPM // n] * n
    for _ in range(_MARKOV_ITERS):
        pi = [
            sum(pi[i] * M[i][j] // PPM for i in range(n)) for j in range(n)
        ]
    want = dict(zip(types, pi))
    have = dict(zip(got["event_type"], got["pi_ppm"].astype(int)))
    assert have == want
    # floor arithmetic only leaks mass downward
    assert sum(have.values()) <= PPM
    assert sum(have.values()) > 0
