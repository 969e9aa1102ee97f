"""Round-4 batch MM: SymSpell pairs, stable matching, hist equalization."""

from collections import deque

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q277

def _lev_dp(a: str, b: str) -> int:
    """Independent route: full O(nm) DP (the query uses a two-pointer
    threshold check and a delete-variant index)."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_symspell_matches_bruteforce(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q277_symspell_pairs"](SF)
    names = sorted(
        pd.read_parquet(f"{SF}/customer.parquet", columns=["c_name"])[
            "c_name"
        ].unique()
    )
    want = {
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if _lev_dp(a, b) == 1
    }
    have = {(r["w1"], r["w2"]) for _, r in got.iterrows()}
    assert have == want
    assert len(have) == len(got)  # no duplicate pairs emitted
    assert len(have) > 0


def test_symspell_complete_on_mutations(ray_session):
    # candidate-completeness property: every substitution/insert/delete
    # neighbor must share a 1-delete variant — probe with random edits
    from texrex_ray.pipelines.queries.census_a import _lev_le1

    rng = np.random.default_rng(3)
    alpha = "abcdef"
    base = ["".join(rng.choice(list(alpha), 8)) for _ in range(20)]
    for w in base:
        i = int(rng.integers(len(w)))
        sub = w[:i] + ("z" if w[i] != "z" else "y") + w[i + 1:]
        ins = w[:i] + "q" + w[i:]
        dele = w[:i] + w[i + 1:]
        for v in (sub, ins, dele):
            assert _lev_le1(w, v), (w, v)
            assert _lev_dp(w, v) <= 1
    # and true distance-2 pairs must be rejected by the verifier
    assert not _lev_le1("abcd", "abxy")   # two substitutions
    assert not _lev_le1("abc", "abcde")   # two insertions
    assert not _lev_le1("abcd", "badc")   # transposition+shift


# ------------------------------------------------------------------- q278

def _serial_gs(sup: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
    """Independent textbook deferred acceptance (deque of free
    proposers; the op batches whole rounds)."""
    sc = {int(r["s_suppkey"]): int(round(r["s_acctbal"] * 100))
          for _, r in sup.iterrows()}
    cc = {int(r["c_custkey"]): int(round(r["c_acctbal"] * 100))
          for _, r in cust.iterrows()}
    plist = {p: sorted(cc, key=lambda a: (abs(cc[a] - sc[p]), a)) for p in sc}
    arank = {a: {p: i for i, p in enumerate(
                 sorted(sc, key=lambda p: (abs(sc[p] - cc[a]), p)))}
             for a in cc}
    nxt = {p: 0 for p in sc}
    held: dict[int, int] = {}
    free = deque(sorted(sc))
    while free:
        p = free.popleft()
        a = plist[p][nxt[p]]
        if a not in held:
            held[a] = p
        elif arank[a][p] < arank[a][held[a]]:
            old = held[a]
            held[a] = p
            nxt[old] += 1
            free.append(old)
        else:
            nxt[p] += 1
            free.append(p)
    rows = sorted((p, a, nxt[p], arank[a][p]) for a, p in held.items())
    return pd.DataFrame(rows, columns=["p", "a", "p_rank", "a_rank"])


def test_stable_match_matches_serial_and_is_stable(ray_session):
    from texrex_ray.ops.matching import is_stable, rank_preferences
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import GS_N

    got = QUERIES["q278_stable_match"](SF)
    sup = (
        pd.read_parquet(f"{SF}/supplier.parquet",
                        columns=["s_suppkey", "s_acctbal"])
        .sort_values("s_suppkey").head(GS_N)
    )
    cust = (
        pd.read_parquet(f"{SF}/customer.parquet",
                        columns=["c_custkey", "c_acctbal"])
        .sort_values("c_custkey").head(len(sup))
    )
    want = _serial_gs(sup, cust)
    have = got.rename(columns={"s_suppkey": "p", "c_custkey": "a"})
    assert have.values.tolist() == want.values.tolist()

    # stability certificate: perfect matching, no blocking pair
    import ray.data as rd

    prefs_p = rank_preferences(rd.from_pandas(sup), cust,
                               "s_suppkey", "s_acctbal",
                               "c_custkey", "c_acctbal")
    prefs_a = rank_preferences(rd.from_pandas(cust), sup,
                               "c_custkey", "c_acctbal",
                               "s_suppkey", "s_acctbal").rename(
        columns={"p": "a", "a": "p"})
    assert is_stable(have, prefs_p, prefs_a)
    # and the certificate itself is discriminative: swapping two
    # partners must break stability (else the matching wasn't unique)
    perturbed = have.copy()
    a_vals = perturbed["a"].tolist()
    a_vals[0], a_vals[1] = a_vals[1], a_vals[0]
    perturbed["a"] = a_vals
    assert not is_stable(perturbed, prefs_p, prefs_a)


# ------------------------------------------------------------------- q279

def test_histeq_scalar_twin_small_images(ray_session):
    from texrex_ray.stages.images import HistEqualize

    he = HistEqualize()
    rng = np.random.default_rng(5)
    for _ in range(5):
        px = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
        lum = [int(px[y, x, 0]) + int(px[y, x, 1]) + int(px[y, x, 2])
               for y in range(9) for x in range(9)]
        n = len(lum)
        hist: dict[int, int] = {}
        for v in lum:
            hist[v] = hist.get(v, 0) + 1
        cdf, run = {}, 0
        for v in sorted(hist):
            run += hist[v]
            cdf[v] = run
        cdf_min = cdf[min(hist)]
        eq = [(cdf[v] - cdf_min) * 765 // (n - cdf_min) for v in lum]

        def vm(vals):
            s = sum(vals)
            s2 = sum(v * v for v in vals)
            return (len(vals) * s2 - s * s) * 1000 // (len(vals) ** 2)

        assert he._audit(px) == (vm(lum), vm(eq))
    # flat image: zero variance both sides (single-level convention)
    flat = np.full((4, 4, 3), 77, dtype=np.uint8)
    assert he._audit(flat) == (0, 0)


def test_histeq_aggregate_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q279_hist_equalize"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/histeq_fixture.parquet"
    )
    want = {
        fmt: (len(s), int(s["var_before_milli"].sum()),
              int(s["var_after_milli"].sum()),
              int((s["var_after_milli"] > s["var_before_milli"]).sum()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_images"]), int(r["sum_var_before"]),
                   int(r["sum_var_after"]), int(r["n_gained"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # equalization must actually move the distribution somewhere
    assert any(v[1] != v[2] for v in want.values())
