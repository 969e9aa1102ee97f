"""Round-4 batch SS: longest repeat, interval scheduling, distinct substrings."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q295

def test_lrs_known_and_fuzz(ray_session):
    import random

    from texrex_ray.functions.complexity import (
        longest_repeated_substring, longest_repeated_substring_brute,
    )

    assert longest_repeated_substring("banana") == 3      # "ana" overlaps
    assert longest_repeated_substring("abcd") == 0
    assert longest_repeated_substring("aa") == 1
    assert longest_repeated_substring("") == 0
    assert longest_repeated_substring("xyxy xyxy") == 4   # "xyxy"
    random.seed(5)
    for t in range(150):
        s = "".join(random.choices("ab c"[:(t % 3) + 2],
                                   k=random.randint(0, 90)))
        assert (longest_repeated_substring(s)
                == longest_repeated_substring_brute(s)), repr(s)


def test_lrs_query_matches_serial(ray_session):
    from texrex_ray.functions.complexity import (
        longest_repeated_substring_brute,
    )
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q295_longest_repeat"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["lang", "text"])
    docs["l"] = docs["text"].map(longest_repeated_substring_brute)
    docs["n"] = docs["text"].str.len()
    want = {
        lang: (len(s), int(s["l"].sum()), int(s["l"].max()),
               int((s["l"] * 1000 // s["n"]).sum()))
        for lang, s in docs.groupby("lang")
    }
    have = {
        r["lang"]: (int(r["n_docs"]), int(r["sum_lrs"]), int(r["max_lrs"]),
                    int(r["sum_ratio_milli"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # lrs < n always (a repeat needs two distinct positions)
    assert all(v[2] < 600 for v in want.values())


# ------------------------------------------------------------------- q296

def test_interval_greedy_equals_dp(ray_session):
    """Earliest-finish greedy == DP optimum on random instances (the
    optimality theorem, checked concretely) — with UNEQUAL lengths."""
    import bisect
    import random

    random.seed(19)
    for _ in range(100):
        ivs = sorted(
            ((s := random.randint(0, 100)) + random.randint(1, 30), s)
            for _ in range(random.randint(0, 18))
        )
        # greedy on (end, start)
        last_end = -1
        greedy = 0
        for e, s in ivs:
            if s >= last_end:
                greedy += 1
                last_end = e
        # DP
        ends = [e for e, _ in ivs]
        dp = [0] * (len(ivs) + 1)
        for i, (e, s) in enumerate(ivs, 1):
            j = bisect.bisect_right(ends, s, 0, i - 1)
            dp[i] = max(dp[i - 1], dp[j] + 1)
        assert greedy == dp[len(ivs)]


def test_interval_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import SESSION_US

    got = QUERIES["q296_interval_scheduling"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts", "user_id"])
    ev["start"] = ev["ts"].astype("int64")
    per_user = {}
    for uid, sub in ev.groupby("user_id"):
        last_end = -1
        n = 0
        for s in sorted(int(x) for x in sub["start"]):
            if s >= last_end:
                n += 1
                last_end = s + SESSION_US
        per_user[int(uid)] = (len(sub), n)
    want = {}
    for uid, (ne, ns) in per_user.items():
        d = want.setdefault(ns, [0, 0])
        d[0] += 1
        d[1] += ne
    have = {
        int(r["n_selected"]): [int(r["n_users"]), int(r["sum_events"])]
        for _, r in got.iterrows()
    }
    assert have == want
    # selected <= events, and at least one session per active user
    assert all(ns <= ne and ns >= 1 for ne, ns in per_user.values())


# ------------------------------------------------------------------- q297

def test_distinct_substrings_known_and_fuzz(ray_session):
    import random

    from texrex_ray.functions.complexity import (
        distinct_substrings, distinct_substrings_suffixarray,
    )

    assert distinct_substrings("") == 0
    assert distinct_substrings("a") == 1
    assert distinct_substrings("aaa") == 3           # a aa aaa
    assert distinct_substrings("abab") == 7
    assert distinct_substrings("abcd") == 10         # all n(n+1)/2
    random.seed(31)
    for t in range(150):
        s = "".join(random.choices("ab c"[:(t % 3) + 2],
                                   k=random.randint(0, 80)))
        assert (distinct_substrings(s)
                == distinct_substrings_suffixarray(s)), repr(s)


def test_dsub_query_matches_serial(ray_session):
    from texrex_ray.functions.complexity import (
        distinct_substrings_suffixarray,
    )
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q297_distinct_substrings"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["lang", "text"])
    docs["d"] = docs["text"].map(distinct_substrings_suffixarray)
    docs["n"] = docs["text"].str.len()
    docs["fill"] = docs["d"] * 1000 // (docs["n"] * (docs["n"] + 1) // 2)
    want = {
        lang: (len(s), int(s["d"].sum()), int(s["fill"].sum()))
        for lang, s in docs.groupby("lang")
    }
    have = {
        r["lang"]: (int(r["n_docs"]), int(r["sum_distinct"]),
                    int(r["sum_fill_milli"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # fill ratio is a proper fraction
    assert (docs["fill"] <= 1000).all()
