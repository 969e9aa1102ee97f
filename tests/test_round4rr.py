"""Round-4 batch RR: window max burst, smallest period, coordinated sample."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q292

def test_window_max_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import WINDOW_DAYS

    got = QUERIES["q292_window_max_burst"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts", "event_type"])
    ev["day"] = (ev["ts"].astype("int64") // 86_400_000_000).astype(int)
    want = {}
    for et, sub in ev.groupby("event_type"):
        cnt = sub["day"].value_counts().sort_index()
        best = (-1, None)
        # brute force: every integer start in the active range
        for s in range(int(cnt.index.min()) - WINDOW_DAYS,
                       int(cnt.index.max()) + 1):
            w = int(cnt.loc[(cnt.index >= s)
                            & (cnt.index < s + WINDOW_DAYS)].sum())
            if w > best[0]:
                best = (w, s)
        # optimum must be achieved at an active-day start (the property
        # both engines rely on); find earliest active start with best sum
        starts = [
            int(d) for d in cnt.index
            if int(cnt.loc[(cnt.index >= d)
                           & (cnt.index < d + WINDOW_DAYS)].sum()) == best[0]
        ]
        want[et] = (min(starts), best[0], len(cnt))
    have = {
        r["event_type"]: (int(r["best_start_day"]), int(r["best_sum"]),
                          int(r["n_days_active"]))
        for _, r in got.iterrows()
    }
    assert have == want


def test_window_max_unit(ray_session):
    """Two-pointer windowed sum on a hand-made series with gaps."""
    days = np.array([0, 1, 9, 10, 11, 30], dtype=np.int64)
    ns = np.array([5, 3, 2, 4, 1, 9], dtype=np.int64)
    ends = np.searchsorted(days, days + 7, side="left")
    csum = np.concatenate([[0], ns.cumsum()])
    wsums = (csum[ends] - csum[np.arange(len(days))]).tolist()
    assert wsums == [8, 3, 7, 5, 1, 9]  # [0..6]=5+3, [9..15]=2+4+1, ...
    i = int(np.lexsort((days, -np.array(wsums)))[0])
    assert (days[i], wsums[i]) == (30, 9)


# ------------------------------------------------------------------- q293

def test_smallest_period_known_and_fuzz(ray_session):
    import random

    from texrex_ray.functions.complexity import (
        smallest_period, smallest_period_brute,
    )

    assert smallest_period("") == 0
    assert smallest_period("a") == 1
    assert smallest_period("aaaa") == 1
    assert smallest_period("ababab") == 2
    assert smallest_period("abcabcab") == 3   # non-dividing period
    assert smallest_period("abcd") == 4       # aperiodic
    random.seed(77)
    for t in range(150):
        s = "".join(random.choices("ab c"[:(t % 3) + 2],
                                   k=random.randint(0, 80)))
        assert smallest_period(s) == smallest_period_brute(s), repr(s)


def test_period_query_matches_serial(ray_session):
    from texrex_ray.functions.complexity import smallest_period_brute
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q293_smallest_period"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["lang", "text"])
    docs["p"] = docs["text"].map(smallest_period_brute)
    docs["n"] = docs["text"].str.len()
    g = docs.groupby("lang")
    want = {
        lang: (len(s), int((s["p"] < s["n"]).sum()), int(s["p"].sum()),
               int((s["p"] * 1000 // s["n"]).sum()))
        for lang, s in g
    }
    have = {
        r["lang"]: (int(r["n_docs"]), int(r["n_bordered"]),
                    int(r["sum_period"]), int(r["sum_ratio_milli"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # a period is never longer than the doc
    assert all(0 <= v[3] <= v[0] * 1000 for v in want.values())


# ------------------------------------------------------------------- q294

def test_coordinated_sample_matches_serial(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import COORD_SAMPLE_MOD

    got = QUERIES["q294_coordinated_sample_join"](SF).iloc[0]
    orders = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey"])
    cust = pd.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey"])

    def sampled(keys):
        h = md5_lower64([str(int(k)) for k in keys])
        return h % np.uint64(COORD_SAMPLE_MOD) == 0

    so = orders[sampled(orders["o_custkey"])]
    sc = set(cust.loc[sampled(cust["c_custkey"]), "c_custkey"])
    n_sj = int(so["o_custkey"].isin(sc).sum())
    true_join = int(orders["o_custkey"].isin(set(cust["c_custkey"])).sum())
    est = n_sj * COORD_SAMPLE_MOD
    assert int(got["n_sample_ord"]) == len(so)
    assert int(got["n_sample_cust"]) == len(sc)
    assert int(got["n_sample_join"]) == n_sj
    assert int(got["est_join"]) == est
    assert int(got["true_join"]) == true_join
    assert int(got["err_ppm"]) == abs(est - true_join) * 1_000_000 // true_join
    # coordination property: the sampled join == join restricted to
    # sampled KEYS on both sides simultaneously (pure key function)
    both = so["o_custkey"].isin(sc)
    assert int(both.sum()) == n_sj
