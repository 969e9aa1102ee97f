"""Round-4 session-4 batch N: Viterbi, runs test, unique prefixes."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q376

def test_viterbi_forward_equals_backward_and_brute():
    from itertools import product

    from texrex_ray.pipelines.queries.census_c import (
        _vit_matrices, viterbi_best, viterbi_best_backward,
    )

    T, E = _vit_matrices(["a", "b", "c", "d"])
    rng = np.random.default_rng(7)
    for _ in range(30):
        obs = rng.integers(0, 4, rng.integers(1, 7)).astype(np.int64)
        fwd = viterbi_best(obs, T, E)
        bwd = viterbi_best_backward(obs, T, E)
        brute = max(
            sum(E[s, o] for s, o in zip(path, obs))
            + sum(T[a, b] for a, b in zip(path, path[1:]))
            for path in product(range(4), repeat=len(obs))
        )
        assert fwd == bwd == brute


def test_viterbi_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _vit_matrices, viterbi_best

    got = QUERIES["q376_viterbi_path"](SF).iloc[0]
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    ).sort_values(["user_id", "ts", "event_id"])
    states = sorted(ev["event_type"].unique())
    T, E = _vit_matrices(states)
    pos = {s: i for i, s in enumerate(states)}
    bests = np.array(
        [
            viterbi_best(sub["event_type"].map(pos).to_numpy(np.int64),
                         T, E)
            for _, sub in ev.groupby("user_id")
        ],
        np.int64,
    )
    assert int(got["n_users"]) == len(bests)
    assert int(got["sum_best"]) == int(bests.sum())
    assert int(got["max_best"]) == int(bests.max())
    assert int(got["min_best"]) == int(bests.min())


# ------------------------------------------------------------------- q377

def test_runs_test_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q377_runs_test"](SF).iloc[0]
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
    ).to_numpy(np.int64)
    n = len(full)
    med = int(np.sort(full)[(n + 1) // 2 - 1])
    s = full[full != med] > med
    n_plus, n_minus = int(s.sum()), int(len(s) - s.sum())
    n_runs = 1 + int((s[1:] != s[:-1]).sum())
    assert int(got["n_days"]) == n
    assert int(got["n_plus"]) == n_plus
    assert int(got["n_minus"]) == n_minus
    assert int(got["n_runs"]) == n_runs
    assert int(got["expected_runs_milli"]) == 1000 + \
        2000 * n_plus * n_minus // (n_plus + n_minus)


# ------------------------------------------------------------------- q378

def test_unique_prefix_matches_trie(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q378_unique_prefix"](SF).iloc[0]
    names = sorted(
        pd.read_parquet(f"{SF}/customer.parquet",
                        columns=["c_name"])["c_name"].unique()
    )
    # trie twin: count how many names share each prefix
    from collections import Counter

    pref: Counter = Counter()
    for nm in names:
        for i in range(1, len(nm) + 1):
            pref[nm[:i]] += 1
    lens = []
    for nm in names:
        up = len(nm)
        for i in range(1, len(nm) + 1):
            if pref[nm[:i]] == 1:
                up = i
                break
        lens.append(up)
    lens = np.array(lens, np.int64)
    assert int(got["n_names"]) == len(names)
    assert int(got["sum_uplen"]) == int(lens.sum())
    assert int(got["max_uplen"]) == int(lens.max())
    assert int(got["min_uplen"]) == int(lens.min())
