"""Round-4 batch Q: decision stump, Wilson ranking, eccentricity."""

import math

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
FIXDIR = "/root/repo/tests/fixtures/oracle"


# ------------------------------------------------------------------- q213

def test_decision_stump_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import STUMP_LANG

    got = QUERIES["q213_decision_stump"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    best = None
    for t in sorted(docs["n_chars"].unique()):
        left = docs[docs["n_chars"] <= t]
        right = docs[docs["n_chars"] > t]

        def mis(sub):
            if len(sub) == 0:
                return 0
            pos = int((sub["lang"] == STUMP_LANG).sum())
            return len(sub) - max(pos, len(sub) - pos)

        cost = mis(left) + mis(right)
        key = (cost, t)
        if best is None or key < best[0]:
            best = (key, (int(t), cost, len(left), len(right)))
    want = best[1]
    have = (
        int(got["threshold"][0]), int(got["miscls"][0]),
        int(got["n_left"][0]), int(got["n_right"][0]),
    )
    assert have == want
    # a stump can never beat predicting the majority class by more than
    # the minority mass, nor do worse than the blind majority guess
    pos = int((docs["lang"] == STUMP_LANG).sum())
    blind = len(docs) - max(pos, len(docs) - pos)
    assert have[1] <= blind


# ------------------------------------------------------------------- q214

def test_wilson_rank_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import WILSON_MIN_CHARS

    got = QUERIES["q214_wilson_rank"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    rows = []
    for src, sub in docs.groupby("source"):
        n = len(sub)
        k = int((sub["n_chars"] >= WILSON_MIN_CHARS).sum())
        isq = math.isqrt((k * (n - k) + n) * n)
        rows.append(
            (src, n, k, k * PPM // n,
             ((k + 2) * n - 2 * isq) * PPM // (n * (n + 4)))
        )
    want = sorted(rows, key=lambda r: (-r[4], r[0]))
    have = [tuple(r) for r in got.itertuples(index=False)]
    assert [tuple(map(str, h[:1])) + tuple(map(int, h[1:])) for h in have] == [
        (str(w[0]), w[1], w[2], w[3], w[4]) for w in want
    ]
    # the lower bound is below the naive rate, and within [0, 1]
    for _, _, _, rate, lb in have:
        assert 0 <= lb <= rate <= 10**6


def test_wilson_small_sample_conservative():
    # 2/2 must rank below 900/1000 under the lower bound even though the
    # naive rate says otherwise
    from texrex_ray.pipelines.queries.analytics_a import PPM

    def lb(k, n):
        isq = math.isqrt((k * (n - k) + n) * n)
        return ((k + 2) * n - 2 * isq) * PPM // (n * (n + 4))

    assert lb(2, 2) < lb(900, 1000)
    assert 2 * PPM // 2 > 900 * PPM // 1000


# ------------------------------------------------------------------- q215

def test_eccentricity_distributed_matches_twin(ray_session):
    from texrex_ray.ops.centrality import (
        eccentricity,
        eccentricity_sequential_twin,
    )

    rng = np.random.default_rng(5)
    src = rng.integers(0, 50, 200)
    dst = rng.integers(0, 50, 200)
    keep = src != dst
    edges = pd.DataFrame(
        {"src": [f"n{j}" for j in src[keep]], "dst": [f"n{j}" for j in dst[keep]]}
    )
    a = eccentricity(edges).reset_index(drop=True)
    b = eccentricity_sequential_twin(edges).reset_index(drop=True)
    assert a.equals(b)


def test_eccentricity_fixture_fresh(ray_session):
    from texrex_ray.ops.centrality import eccentricity

    edges = pd.read_parquet(f"{FIXDIR}/pagerank_edges.parquet")
    fix = pd.read_parquet(f"{FIXDIR}/eccentricity_sf0.01.parquet")
    got = eccentricity(edges)
    assert fix.sort_values("node").reset_index(drop=True).equals(
        got.sort_values("node").reset_index(drop=True)
    )
    # ecc is only 0 for sinks (n_reached == 0)
    z = fix[fix["ecc"] == 0]
    assert (z["n_reached"] == 0).all()
