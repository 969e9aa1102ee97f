"""Round-4 session-4 batch I: autocorr, weighted median, day Jaccard."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q361

def test_tdiv_matches_duckdb_semantics():
    import duckdb

    from texrex_ray.pipelines.queries.census_c import _tdiv

    con = duckdb.connect()
    for a in (-7, -1, 0, 1, 7, -1000001):
        for b in (2, 3, 1000000):
            assert _tdiv(a, b) == con.execute(
                f"select {a} // {b}").fetchone()[0]


def test_revenue_autocorr_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _tdiv

    got = QUERIES["q361_revenue_autocorr"](SF).iloc[0]
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_shipdate", "l_extendedprice", "l_discount"],
    )
    day = li["l_shipdate"].astype("datetime64[us]").astype(np.int64) \
        // 86_400_000_000
    vol = (
        np.round(li["l_extendedprice"] * 100).astype(np.int64)
        * (100 - np.round(li["l_discount"] * 100).astype(np.int64)) // 100
    )
    daily = pd.DataFrame({"day": day, "r": vol}).groupby("day")["r"].sum()
    full = daily.reindex(
        range(int(daily.index.min()), int(daily.index.max()) + 1),
        fill_value=0,
    )
    x = full.to_numpy(np.int64)
    n = len(x)
    tot = int(x.sum())
    dev = [int(v) * n - tot for v in x]
    den = sum(d * d for d in dev)
    assert int(got["n_days"]) == n
    assert int(got["total_c"]) == tot
    for k, col in ((1, "acf1_ppm"), (7, "acf7_ppm")):
        num = sum(a * b for a, b in zip(dev[:-k], dev[k:]))
        assert int(got[col]) == _tdiv(num * 1_000_000, den)


# ------------------------------------------------------------------- q362

def test_weighted_median_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q362_weighted_median"](SF)
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    orders = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey"])
    wt = orders["o_custkey"].value_counts()
    cust = cust[cust["c_custkey"].isin(wt.index)].copy()
    cust["wt"] = cust["c_custkey"].map(wt).astype(np.int64)
    cust["bal_c"] = np.round(cust["c_acctbal"] * 100).astype(np.int64)
    rows = []
    for g, sub in cust.groupby("c_nationkey"):
        sub = sub.sort_values("bal_c")
        cw = sub["wt"].cumsum().to_numpy(np.int64)
        tw = int(cw[-1])
        i = int(np.searchsorted(2 * cw, tw))
        rows.append((int(g), tw, int(sub["bal_c"].iloc[i])))
    want = pd.DataFrame(
        rows, columns=["grp", "total_weight", "wmedian_c"]
    ).astype("int64")
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


# ------------------------------------------------------------------- q363

def test_day_jaccard_matches_sets(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q363_day_jaccard"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts", "user_id"])
    day = ev["ts"].astype("datetime64[us]").astype(np.int64) \
        // 86_400_000_000
    sets: dict[int, set[int]] = {}
    for d, u in zip(day, ev["user_id"]):
        sets.setdefault(int(d), set()).add(int(u))
    rows = []
    for d in sorted(sets):
        if d + 1 not in sets:
            continue
        a, b = sets[d], sets[d + 1]
        inter = len(a & b)
        rows.append((d, len(a), len(b), inter,
                     inter * 1_000_000 // len(a | b)))
    want = pd.DataFrame(
        rows, columns=["day", "n_today", "n_next", "n_common", "j_ppm"]
    ).astype("int64")
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
