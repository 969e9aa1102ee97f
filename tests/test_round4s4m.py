"""Round-4 session-4 batch M: palindromes, salted aggregate, Q12 shape."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q373

def test_palindrome_twins_hard_cases():
    from texrex_ray.pipelines.queries.census_c import (
        longest_palindrome_brute, longest_palindrome_manacher,
    )

    for s in ("", "a", "aa", "ab", "aba", "abba", "abcba" * 4,
              "x" * 50, "abcdefg", "aabbaabb"):
        assert longest_palindrome_manacher(s) == longest_palindrome_brute(s)
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = "".join(rng.choice(list("ab"), rng.integers(0, 60)))
        assert longest_palindrome_manacher(s) == longest_palindrome_brute(s)


def test_palindrome_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import _BWT_PREFIX
    from texrex_ray.pipelines.queries.census_c import longest_palindrome_brute

    got = QUERIES["q373_longest_palindrome"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["source", "text"])
    rows = []
    for src, sub in docs.groupby("source"):
        ls = [longest_palindrome_brute(str(t)[:_BWT_PREFIX])
              for t in sub["text"]]
        rows.append((src, len(ls), int(np.sum(ls)), int(np.max(ls))))
    want = pd.DataFrame(
        rows, columns=["source", "n_docs", "sum_pal_len", "max_pal_len"]
    ).astype({c: "int64" for c in ("n_docs", "sum_pal_len", "max_pal_len")})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


# ------------------------------------------------------------------- q374

def test_salted_aggregate_matches_plain(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q374_salted_aggregate"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_type", "value"])
    want = (
        ev.assign(sum_c=np.round(ev["value"] * 100).astype(np.int64),
                  n_events=1)
        .groupby("event_type", as_index=False)[["n_events", "sum_c"]]
        .sum()
        .sort_values("event_type")
        .reset_index(drop=True)
        .astype({"n_events": "int64", "sum_c": "int64"})
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


# ------------------------------------------------------------------- q375

def test_late_shipments_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q375_late_shipments"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate",
                                  "l_returnflag"])
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])
    m = li.merge(o, left_on="l_orderkey", right_on="o_orderkey")
    gap = (m["l_shipdate"] - m["o_orderdate"]).dt.total_seconds()
    late = m[gap > 60 * 86_400]
    hi = late["o_orderpriority"].isin(("1-URGENT", "2-HIGH"))
    want = (
        pd.DataFrame(
            {"flag": late["l_returnflag"],
             "high_line_count": hi.astype(np.int64),
             "low_line_count": (~hi).astype(np.int64)}
        )
        .groupby("flag", as_index=False)
        .sum()
        .sort_values("flag")
        .reset_index(drop=True)
        .astype({"high_line_count": "int64", "low_line_count": "int64"})
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
