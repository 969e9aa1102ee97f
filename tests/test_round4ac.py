"""Round-4 batch AC: TPC-H Q11/Q15/Q22 shapes."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _vol_c(df: pd.DataFrame) -> pd.Series:
    price_c = np.round(df["l_extendedprice"] * 100).astype(np.int64)
    disc_h = np.round(df["l_discount"] * 100).astype(np.int64)
    return price_c * (100 - disc_h) // 100


# ------------------------------------------------------------------- q322

def test_q11_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q11_MEAN_DEN, Q11_MEAN_NUM

    got = QUERIES["q322_important_stock"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    li = li.assign(v=_vol_c(li))
    per = li.groupby("l_partkey")["v"].sum()
    tot, n = int(per.sum()), len(per)
    want = (
        per[per * n * Q11_MEAN_DEN > tot * Q11_MEAN_NUM]
        .reset_index()
        .rename(columns={"v": "value_c"})
        .sort_values(["value_c", "l_partkey"], ascending=[False, True])
        .reset_index(drop=True)
    )
    assert got.values.tolist() == want.values.tolist()
    # every kept part strictly beats the scaled mean
    assert (got["value_c"].to_numpy() * n * Q11_MEAN_DEN
            > tot * Q11_MEAN_NUM).all()
    assert len(got) > 0


# ------------------------------------------------------------------- q323

def test_q15_matches_pandas_twin_and_returns_all_ties(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q15_HI, Q15_LO

    got = QUERIES["q323_top_supplier"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    li = li[(li["l_shipdate"] >= Q15_LO) & (li["l_shipdate"] < Q15_HI)]
    li = li.assign(v=_vol_c(li))
    rev = li.groupby("l_suppkey")["v"].sum()
    mx = int(rev.max())
    want = sorted(int(k) for k, v in rev.items() if int(v) == mx)
    assert got["s_suppkey"].tolist() == want
    assert (got["total_rev_c"] == mx).all()
    # the max really dominates every other supplier
    assert (rev.drop(want) < mx).all()


# ------------------------------------------------------------------- q324

def test_q22_matches_pandas_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import Q22_CUTOFF, Q22_NATIONS

    got = QUERIES["q324_dormant_rich"](SF)
    c = pd.read_parquet(f"{SF}/customer.parquet")
    o = pd.read_parquet(f"{SF}/orders.parquet")
    pool = c[c["c_nationkey"].isin(Q22_NATIONS)].copy()
    pool["bal_c"] = np.round(pool["c_acctbal"] * 100).astype(np.int64)
    pos = pool[pool["bal_c"] > 0]
    s, n = int(pos["bal_c"].sum()), len(pos)
    rich = pool[pool["bal_c"] * n > s]
    recent = set(o.loc[o["o_orderdate"] >= Q22_CUTOFF, "o_custkey"])
    dormant = rich[~rich["c_custkey"].isin(recent)]
    want = {
        int(k): (len(sub), int(sub["bal_c"].sum()))
        for k, sub in dormant.groupby("c_nationkey")
    }
    have = {
        int(r["nationkey"]): (int(r["n_cust"]), int(r["sum_bal_c"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # anti-join correctness: no reported customer ordered recently
    assert not set(dormant["c_custkey"]) & recent
