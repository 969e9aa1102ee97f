"""Round-4 batch E: cohort retention, grouped Gini, prefix-filtering
set-similarity join."""

import re

import numpy as np
import pandas as pd
import pytest
import ray.data

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q151

def test_cohort_retention_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import WEEK_US

    got = QUERIES["q151_cohort_retention"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    wk = ev["ts"].astype("int64") // WEEK_US
    uw = pd.DataFrame({"u": ev["user_id"], "wk": wk}).drop_duplicates()
    cohort = uw.groupby("u")["wk"].min()
    want = {}
    for u, w in zip(uw["u"], uw["wk"]):
        key = (int(cohort[u]), int(w - cohort[u]))
        want[key] = want.get(key, 0) + 1
    have = {
        (int(r["cohort"]), int(r["offset_wk"])): int(r["n_users"])
        for _, r in got.iterrows()
    }
    assert have == want
    # every user appears exactly once at offset 0 of their own cohort
    assert sum(n for (c, o), n in have.items() if o == 0) == uw["u"].nunique()


# ------------------------------------------------------------------- q152

def _gini_direct(values: list[int]) -> int:
    from texrex_ray.pipelines.queries.analytics_a import GINI_SCALE

    xs = sorted(values)
    n = len(xs)
    s = sum(xs)
    s1 = sum((i + 1) * x for i, x in enumerate(xs))
    return (2 * s1 - (n + 1) * s) * GINI_SCALE // (n * s)


def test_grouped_gini_matches_direct(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q152_grouped_gini"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    cnt = ev.groupby(["event_type", "user_id"]).size()
    for _, row in got.iterrows():
        vals = cnt[row["event_type"]].tolist()
        assert row["gini_ppm"] == _gini_direct(vals), row["event_type"]
        assert row["n_users"] == len(vals)


def test_gini_histogram_rank_fold_analytic():
    # equal values -> perfect equality -> 0; one user owns all -> (n-1)/n
    from texrex_ray.pipelines.queries.analytics_a import GINI_SCALE

    assert _gini_direct([5, 5, 5, 5]) == 0
    n = 10
    assert _gini_direct([0] * (n - 1) + [100]) == (
        (n - 1) * GINI_SCALE // n
    )


# ------------------------------------------------------------------- q153

def _brute_pairs(sets: dict[int, frozenset], num: int, den: int):
    ids = sorted(sets)
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a]) + len(sets[b]) - inter
            if union and den * inter >= num * union:
                out[(a, b)] = (inter, union)
    return out


def test_prefix_setjoin_matches_bruteforce_sf(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q153_prefix_setjoin"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    sets = {}
    for did, txt in zip(docs["doc_id"], docs["text"]):
        ws = re.findall(r"[a-z]+", (txt or "").lower())
        sets[int(did)] = frozenset(
            f"{a} {b} {c}" for a, b, c in zip(ws, ws[1:], ws[2:])
        )
    want = _brute_pairs(sets, 1, 2)
    have = {
        (int(r["id_a"]), int(r["id_b"])): (int(r["n_inter"]), int(r["n_union"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert len(want) > 0


def test_prefix_setjoin_random_completeness(ray_session):
    """Prefix filtering must drop nothing: random sets, every order mode."""
    from texrex_ray.dedup.setjoin import prefix_jaccard_pairs

    rng = np.random.default_rng(11)
    universe = [f"e{i:03d}" for i in range(40)]
    sets = {}
    for rid in range(60):
        k = int(rng.integers(3, 12))
        sets[rid] = frozenset(rng.choice(universe, size=k, replace=False))
    # plant guaranteed near-dups
    sets[100] = sets[0]
    sets[101] = frozenset(list(sets[1])[:-1]) if len(sets[1]) > 3 else sets[1]
    rows = [{"doc_id": rid, "toks": sorted(s)} for rid, s in sets.items()]
    want = _brute_pairs(sets, 3, 5)

    for order in ("df", "hash"):
        ds = ray.data.from_items(rows).repartition(5)
        out = prefix_jaccard_pairs(
            ds, id_col="doc_id", set_col="toks", threshold=(3, 5), order=order
        )
        have = {
            (int(r["id_a"]), int(r["id_b"])): (int(r["n_inter"]), int(r["n_union"]))
            for _, r in out.iterrows()
        }
        assert have == want, order


def test_prefix_length_bound():
    from texrex_ray.dedup.setjoin import prefix_length

    # t=1 keeps exactly one element; t->0 keeps the whole set
    assert prefix_length(10, 1, 1) == 1
    assert prefix_length(10, 1, 10) == 10
    # AllPairs bound: |x| - ceil(t|x|) + 1
    assert prefix_length(7, 1, 2) == 7 - 4 + 1


def test_prefix_setjoin_hot_key_guard(ray_session):
    from texrex_ray.dedup.setjoin import prefix_jaccard_pairs

    rows = [{"doc_id": i, "toks": ["shared", f"u{i}"]} for i in range(30)]
    ds = ray.data.from_items(rows)
    with pytest.raises(RuntimeError, match="max_group"):
        prefix_jaccard_pairs(
            ds, id_col="doc_id", set_col="toks", threshold=(1, 2), max_group=10
        )


def test_prefix_setjoin_empty_result(ray_session):
    from texrex_ray.dedup.setjoin import prefix_jaccard_pairs

    rows = [{"doc_id": i, "toks": [f"only{i}a", f"only{i}b"]} for i in range(8)]
    ds = ray.data.from_items(rows)
    out = prefix_jaccard_pairs(ds, id_col="doc_id", set_col="toks")
    assert out.empty
    assert list(out.columns) == ["id_a", "id_b", "n_inter", "n_union"]


# ------------------------------------------------------------------- q154

def test_pq_distributed_matches_sequential_twin(ray_session):
    from texrex_ray.dedup.pq import (
        pq_adc_topk, pq_encode, pq_sequential, pq_train,
    )

    rng = np.random.default_rng(3)
    vecs = {i: rng.normal(size=16).tolist() for i in range(80)}
    rows = [{"vec_id": i, "embedding": v} for i, v in vecs.items()]
    ds = ray.data.from_items(rows).repartition(6)
    books = pq_train(ds, m=4, ks=8, iters=4)
    codes = pq_encode(ds, books)
    queries = {i: np.asarray(vecs[i]) for i in range(3)}
    got = pq_adc_topk(codes, books, queries, k=5)
    want = pq_sequential(vecs, [0, 1, 2], m=4, ks=8, iters=4, k=5)
    have = list(
        zip(got["query_id"], got["neighbor_id"], got["adc_dist"], got["rank"])
    )
    assert [tuple(map(int, r)) for r in have] == want


def test_pq_precombine_path_identical(ray_session):
    from texrex_ray.dedup.pq import pq_adc_topk, pq_encode, pq_train

    rng = np.random.default_rng(5)
    rows = [
        {"vec_id": i, "embedding": rng.normal(size=8).tolist()}
        for i in range(60)
    ]
    ds = ray.data.from_items(rows).repartition(8)
    books = pq_train(ds, m=2, ks=4, iters=3)
    codes = pq_encode(ds, books)
    q = {0: np.asarray(rows[0]["embedding"]), 7: np.asarray(rows[7]["embedding"])}
    a = pq_adc_topk(codes, books, q, k=4, precombine=False)
    b = pq_adc_topk(pq_encode(ds, books), books, q, k=4, precombine=True)
    pd.testing.assert_frame_equal(a, b)


def test_pq_fixture_fresh(ray_session):
    """Committed q154 fixture matches the live distributed path."""
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q154_pq_adc_topk"]("/root/testdata/sf0.01")
    want = (
        pd.read_parquet("/root/repo/tests/fixtures/oracle/pq_adc_sf0.01.parquet")
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.sort_values(["query_id", "rank"]).reset_index(drop=True),
        want.astype("int64"),
    )


# ------------------------------------------------------------------- q155

def test_kmv_intersection_matches_serial(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import KMV_K

    got = QUERIES["q155_kmv_intersection"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    sides = {0: set(), 1: set()}
    for did, txt in zip(docs["doc_id"], docs["text"]):
        toks = re.findall(r"[a-z]+", (txt or "").lower())
        grams = {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}
        if grams:
            sides[int(did) % 2].update(int(h) for h in md5_lower64(sorted(grams)))
    union = sorted(sides[0] | sides[1])
    inter = sides[0] & sides[1]
    if len(union) >= KMV_K:
        theta = union[KMV_K - 1]
        n_both = sum(1 for h in union[: KMV_K - 1] if h in inter)
        est = (n_both << 64) // theta
    else:
        est = len(inter)
    assert int(got["n_exact_inter"][0]) == len(inter)
    assert int(got["kmv_inter_est"][0]) == est
    # the estimate should be in the right ballpark of the exact count
    assert est > 0 and abs(est - len(inter)) < len(inter)


# ------------------------------------------------------------------- q156

def test_event_transitions_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q156_event_transitions"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    want: dict = {}
    for _, sub in ev.groupby("user_id"):
        ts = sub["event_type"].tolist()
        for a, b in zip(ts, ts[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1
    totals: dict = {}
    for (a, _), n in want.items():
        totals[a] = totals.get(a, 0) + n
    have = {
        (r["from_type"], r["to_type"]): (int(r["n"]), int(r["p_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == {
        k: (n, n * PPM // totals[k[0]]) for k, n in want.items()
    }
    # row-normalization sanity: each from-type's ppm sums to ~1e6
    s = got.groupby("from_type")["p_ppm"].sum()
    assert ((s > PPM - 30) & (s <= PPM)).all()


# ------------------------------------------------------------------- q157

def test_rrf_fusion_matches_serial(ray_session):
    from texrex_ray.dedup.embed import knn_bruteforce
    from texrex_ray.dedup.pq import pq_sequential
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM, RRF_K, RRF_TOPK

    got = QUERIES["q157_rrf_fusion"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    vecs = {int(i): list(v) for i, v in zip(emb["vec_id"], emb["embedding"])}

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    cos = knn_bruteforce(ds, query_ids=list(range(8)), k=10)
    adc = pq_sequential(vecs, list(range(8)), m=8, ks=16, iters=5, k=10)

    scores: dict = {}
    for _, r in cos.iterrows():
        key = (int(r["query_id"]), int(r["neighbor_id"]))
        scores[key] = scores.get(key, 0) + PPM // (RRF_K + int(r["rank"]))
    for q, n, _, rank in adc:
        scores[(q, n)] = scores.get((q, n), 0) + PPM // (RRF_K + rank)
    want = []
    for q in range(8):
        items = sorted(
            ((s, n) for (qq, n), s in scores.items() if qq == q),
            key=lambda t: (-t[0], t[1]),
        )[:RRF_TOPK]
        for rank, (s, n) in enumerate(items, start=1):
            want.append((q, n, s, rank))
    have = [
        tuple(map(int, r))
        for r in zip(got["query_id"], got["neighbor_id"],
                     got["rrf_score"], got["rank"])
    ]
    assert have == want


# ------------------------------------------------------------------- q158

def test_cocitation_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import COCITE_CAP

    got = QUERIES["q158_cocitation"](SF)
    df = pd.read_parquet("/root/repo/tests/fixtures/oracle/pagerank_edges.parquet")
    host = df["src"].str.extract(r"^https?://([^/]+)", expand=False)
    d = pd.DataFrame({"h": host, "dst": df["dst"]}).drop_duplicates()
    want: dict = {}
    for _, sub in d.groupby("dst"):
        hs = sorted(sub["h"].unique())
        if not (2 <= len(hs) <= COCITE_CAP):
            continue
        for i, a in enumerate(hs):
            for b in hs[i + 1:]:
                want[(a, b)] = want.get((a, b), 0) + 1
    want = {k: v for k, v in want.items() if v >= 3}
    have = {
        (r["host_a"], r["host_b"]): int(r["n_shared"]) for _, r in got.iterrows()
    }
    assert have == want
    assert len(want) > 0


# ------------------------------------------------------------------- q159

def test_lexical_hhi_matches_serial(ray_session):
    from collections import Counter

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q159_lexical_hhi"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    per: dict = {}
    for src, txt in zip(docs["source"], docs["text"]):
        per.setdefault(src, Counter()).update(
            re.findall(r"[a-z]+", (txt or "").lower())
        )
    for _, r in got.iterrows():
        cnt = per[r["source"]]
        tot = sum(cnt.values())
        sq = sum(v * v for v in cnt.values())
        assert int(r["hhi_ppm"]) == sq * PPM // (tot * tot)
        assert int(r["simpson_ppm"]) == (tot * tot - sq) * PPM // (tot * tot)
        assert int(r["n_types"]) == len(cnt)
    # identity: hhi + simpson == PPM up to the two independent floors
    s = got["hhi_ppm"] + got["simpson_ppm"]
    assert ((s == PPM) | (s == PPM - 1)).all()


# ------------------------------------------------------------------- q160

def test_burstiness_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q160_burstiness"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    want = {}
    for uid, sub in ev.groupby("user_id"):
        us = sub["ts"].astype("int64").tolist()
        gaps = [(b - a) // 1_000_000 for a, b in zip(us, us[1:])]
        tot = sum(gaps)
        if not gaps or tot <= 0:
            continue
        sq = sum(g * g for g in gaps)
        n = len(gaps)
        want[int(uid)] = (n, (n * sq - tot * tot) * PPM // (tot * tot))
    have = {
        int(r["user_id"]): (int(r["n_gaps"]), int(r["cv2_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert len(want) > 0


def test_prefix_setjoin_shuffle_verify_plan_identical(ray_session):
    """The scale verify plan (two bucketed hash joins, no driver
    materialization) emits exactly the broadcast plan's rows."""
    from texrex_ray.dedup.setjoin import prefix_jaccard_pairs

    rng = np.random.default_rng(23)
    universe = [f"e{i:03d}" for i in range(30)]
    rows = []
    for rid in range(50):
        k = int(rng.integers(3, 10))
        rows.append({
            "doc_id": rid,
            "toks": sorted(rng.choice(universe, size=k, replace=False)),
        })
    rows.append({"doc_id": 500, "toks": rows[0]["toks"]})
    ds = ray.data.from_items(rows).repartition(4)
    a = prefix_jaccard_pairs(ds, id_col="doc_id", set_col="toks",
                             threshold=(2, 5))
    b = prefix_jaccard_pairs(
        ray.data.from_items(rows).repartition(4),
        id_col="doc_id", set_col="toks", threshold=(2, 5),
        verify_broadcast_limit=0,
    )
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0
