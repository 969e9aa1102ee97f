"""q46 (counting quantiles) and q47 (hash split): invariants beyond the
DuckDB gate — layout independence, determinism, and the exact split
membership function."""

import hashlib
import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_length_quantiles_match_duckdb(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q46_length_quantiles"](SF)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(
        """SELECT lang, quantile_disc(n_chars, 0.5) AS p50,
                  quantile_disc(n_chars, 0.9) AS p90,
                  quantile_disc(n_chars, 0.99) AS p99
           FROM documents GROUP BY lang ORDER BY lang"""
    ).df()
    pd.testing.assert_frame_equal(
        got.astype({"p50": "int64", "p90": "int64", "p99": "int64"}),
        want.astype({"p50": "int64", "p90": "int64", "p99": "int64"}),
    )


def test_quantile_convention_edge_cases():
    """The counting pick must equal quantile_disc on integral q*n edges."""
    con = duckdb.connect()
    rng = np.random.default_rng(11)
    for n in (4, 10, 50, 200):
        xs = np.sort(rng.integers(0, 1000, n))
        for q in (0.25, 0.5, 0.9, 0.99):
            want = con.execute(
                f"SELECT quantile_disc(x, {q!r}) FROM (SELECT unnest({xs.tolist()}) AS x)"
            ).fetchone()[0]
            rank = min(n, max(1, math.ceil(q * n)))
            assert xs[rank - 1] == want, (n, q)


def test_hll_registers_mergeable():
    """Register vectors are a mergeable sketch: regs(A ∪ B) == max(regs(A), regs(B))
    — the property that lets per-batch partials combine via groupby().Max."""
    from texrex_ray.pipelines.queries.flagships import hll_estimate, hll_registers

    items = [f"item-{i * 37}" for i in range(5000)]
    whole = hll_registers(items)
    merged = np.maximum.reduce(
        [hll_registers(items[i::7]) for i in range(7)]  # overlapping? no: exact partition
    )
    assert (whole == merged).all()
    est = hll_estimate(whole)
    assert abs(est - 5000) / 5000 < 0.10  # ~3.2% standard error at m=1024


def test_hll_query_accuracy_and_exact_side(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q48_hll_distinct"](SF)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = con.execute(
        "SELECT event_type, COUNT(DISTINCT value) AS n_exact FROM events"
        " GROUP BY event_type ORDER BY event_type"
    ).df()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n_exact"].tolist() == want["n_exact"].tolist()
    rel = (got["n_hll"] - got["n_exact"]).abs() / got["n_exact"]
    assert (rel < 0.15).all()


def test_hash_split_membership_and_sizes(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q47_hash_split"](SF).set_index("split")
    ids = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    # independent scalar recompute of the membership function
    buckets = np.array(
        [
            int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:], "little") % 100
            for i in ids
        ]
    )
    for name, m in (
        ("train", buckets < 80),
        ("val", (buckets >= 80) & (buckets < 90)),
        ("test", buckets >= 90),
    ):
        assert got.loc[name, "n_docs"] == int(m.sum())
        assert got.loc[name, "sum_ids"] == int(ids[m].sum())
    assert got["n_docs"].sum() == len(ids)  # a partition, not a sample
    # 80/10/10 within binomial noise on 500 docs
    assert 0.70 < got.loc["train", "n_docs"] / len(ids) < 0.90


def _docs_as_dir(tmp_path, n_files, interleave=False):
    """sf0.001 documents re-laid-out as a parquet DIRECTORY of n_files
    pieces (→ n_files Ray blocks).  interleave=True round-robins ids
    across files, violating the disjoint-id-range assumption."""
    import pyarrow.parquet as pqw

    t = pq.read_table(f"{SF}/documents.parquet")
    d = tmp_path / "documents.parquet"
    d.mkdir()
    n = t.num_rows
    for i in range(n_files):
        part = t.take(list(range(i, n, n_files))) if interleave else t.slice(
            i * n // n_files, (i + 1) * n // n_files - i * n // n_files
        )
        pqw.write_table(part, d / f"part-{i}.parquet")
    return str(tmp_path)


def test_prefix_pack_matches_serial_recompute(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.flagships import PACK_BUDGET

    got = QUERIES["q50_prefix_pack"](SF)
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "n_chars"])
    df = t.to_pandas().sort_values("doc_id")
    before = df["n_chars"].cumsum() - df["n_chars"]
    df["shard"] = before // PACK_BUDGET
    want = (
        df.groupby("shard")
        .agg(n_docs=("doc_id", "size"), sum_chars=("n_chars", "sum"), sum_ids=("doc_id", "sum"))
        .reset_index()
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_like=True
    )


def test_prefix_pack_layout_invariant(ray_session, tmp_path):
    """Same answer over 1 block and over a 7-file range-partitioned layout
    (the 100 TB shape: one summary row per piece, offsets composed on the
    driver)."""
    from texrex_ray.pipelines.queries import QUERIES

    single = QUERIES["q50_prefix_pack"](SF)
    multi = QUERIES["q50_prefix_pack"](_docs_as_dir(tmp_path, 7))
    pd.testing.assert_frame_equal(single, multi)


def test_prefix_pack_rejects_overlapping_ranges(ray_session, tmp_path):
    """Interleaved id ranges violate the documented partitioning
    assumption and must fail loudly, not misassign shards."""
    import pytest

    from texrex_ray.pipelines.queries import QUERIES

    with pytest.raises((ValueError, Exception)):
        QUERIES["q50_prefix_pack"](_docs_as_dir(tmp_path, 3, interleave=True))


def test_tfidf_matches_serial_recompute(ray_session):
    import re
    from collections import Counter

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q51_tfidf_top_term"](SF)
    tok_re = re.compile(r"[a-z]+")
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    df_count: Counter = Counter()
    tfs = {}
    for did, s in zip(t["doc_id"], t["text"]):
        tf = Counter(tok_re.findall((s or "").lower()))
        tfs[did] = tf
        df_count.update(tf.keys())
    rows = []
    for did in sorted(tfs):
        tf = tfs[did]
        if not tf:
            continue
        best = min(
            ((-(n * 1_000_000 // df_count[tok]), tok) for tok, n in tf.items())
        )
        rows.append({"doc_id": did, "token": best[1], "score_c": -best[0]})
    want = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(got, want, check_like=True)


def test_group_sample_layout_invariant_and_uniform(ray_session, tmp_path):
    """Bottom-k-by-hash: winners are a set property of the group, so the
    sample is identical across physical layouts; per-group size is
    min(k, group size)."""
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.flagships import SAMPLE_K

    single = QUERIES["q52_group_sample"](SF)
    multi = QUERIES["q52_group_sample"](_docs_as_dir(tmp_path, 5))
    pd.testing.assert_frame_equal(single, multi)
    langs = pq.read_table(f"{SF}/documents.parquet", columns=["lang"])["lang"].to_pandas()
    sizes = langs.value_counts()
    got_sizes = single.groupby("lang")["doc_id"].size()
    for lang, n in sizes.items():
        assert got_sizes.get(lang, 0) == min(SAMPLE_K, n)


def test_star_join_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q53_star_join"](SF)
    o = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    c = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    n = pq.read_table(f"{SF}/nation.parquet").to_pandas()
    r = pq.read_table(f"{SF}/region.parquet").to_pandas()
    j = (
        o.merge(c, left_on="o_custkey", right_on="c_custkey")
        .merge(n, left_on="c_nationkey", right_on="n_nationkey")
        .merge(r, left_on="n_regionkey", right_on="r_regionkey")
    )
    want = (
        j.groupby(["r_name", "n_name"])
        .agg(n_orders=("o_orderkey", "size"), rev=("o_totalprice", "sum"))
        .reset_index()
        .sort_values(["r_name", "n_name"])
        .reset_index(drop=True)
    )
    assert got["n_orders"].tolist() == want["n_orders"].tolist()
    assert got[["r_name", "n_name"]].values.tolist() == want[["r_name", "n_name"]].values.tolist()
    assert np.allclose(got["revenue_c"], (want["rev"] * 100).round(), atol=1)


def test_cms_never_underestimates_and_merges():
    """Count-min guarantees: estimate ≥ true count; partials merge by +."""
    from texrex_ray.pipelines.queries.flagships import cms_estimate, cms_partial

    rng = np.random.default_rng(13)
    keys = [str(k) for k in rng.integers(0, 200, 5000)]
    whole = cms_partial(keys)
    halves = cms_partial(keys[:2500]) + cms_partial(keys[2500:])
    assert (whole == halves).all()  # mergeable: order/split irrelevant
    import collections

    true = collections.Counter(keys)
    uniq = sorted(true)
    est = cms_estimate(whole, uniq)
    assert all(e >= true[k] for e, k in zip(est, uniq))
    # width 2048 over 200 keys: estimates should be near-exact here
    assert sum(e == true[k] for e, k in zip(est, uniq)) >= len(uniq) * 0.95


def test_heavy_hitters_exact_vs_duckdb(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.flagships import HH_THRESHOLD

    got = QUERIES["q56_heavy_hitters"](SF)
    want = duckdb.sql(
        f"""SELECT user_id, COUNT(*) AS n_events
            FROM '{SF}/events.parquet' GROUP BY user_id
            HAVING COUNT(*) >= {HH_THRESHOLD} ORDER BY user_id"""
    ).df()
    assert got["user_id"].tolist() == want["user_id"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()


def test_phash_fixture_fresh_and_lsh_complete(ray_session):
    """Committed (image_id, phash, w, h) oracle fixture matches live
    generation, and hamming_pairs finds the full brute-force Hamming ball."""
    import itertools

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES

    d = fixture_path(n=300, seed=42)
    live = pq.read_table(
        f"{d}/images.parquet", columns=["image_id", "phash", "w", "h"]
    )
    committed = pq.read_table(
        "/root/repo/tests/fixtures/oracle/images_phash_n300_s42.parquet"
    )
    # the committed fixture also carries the q182 fmt column; freshness
    # is judged on the original phash projection
    assert live.equals(committed.select(["image_id", "phash", "w", "h"]))
    live = live.select(["image_id", "phash"])

    got = QUERIES["q57_phash_near_dups"](SF)
    ph = dict(zip(live["image_id"].to_pylist(), live["phash"].to_pylist()))
    brute = sorted(
        (a, b, bin((pa_ ^ pb) & ((1 << 64) - 1)).count("1"))
        for (a, pa_), (b, pb) in itertools.combinations(sorted(ph.items()), 2)
        if bin((pa_ ^ pb) & ((1 << 64) - 1)).count("1") <= 6
    )
    assert list(map(tuple, got.values.tolist())) == brute


def test_decontaminate_matches_bruteforce(ray_session):
    """q59 at sf0.001 vs a literal string-set recompute (no hashing):
    hash64 membership must introduce zero collisions at this scale."""
    import re

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.flagships import DECON_N

    got = QUERIES["q59_decontaminate"](SF)
    tok = re.compile(r"[a-z]+")
    docs = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    bench = set()
    for s in docs["text"].head(10):
        t = tok.findall((s or "").lower())
        bench.update(" ".join(t[i : i + DECON_N]) for i in range(len(t) - DECON_N + 1))
    want = []
    for doc_id, s in zip(docs["doc_id"], docs["text"]):
        t = tok.findall((s or "").lower())
        n = sum(" ".join(t[i : i + DECON_N]) in bench for i in range(len(t) - DECON_N + 1))
        if n:
            want.append((doc_id, n))
    assert list(map(tuple, got.values.tolist())) == sorted(want)


def test_incremental_neardup_matches_band_tuple_recompute(ray_session):
    """q67 at sf0.001 vs a sequential band-TUPLE set recompute: the
    persisted index + md5 band encoding must agree exactly with plain
    tuple equality (no collisions, no lost bands)."""
    import hashlib

    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q67_incremental_neardup"](SF)

    df = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    bk = [
        int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:], "little") % 100
        for i in df["doc_id"]
    ]
    toks = [LATIN_TOKEN_RE.findall(s.lower()) for s in df["text"]]
    k, bands = 32, 8
    r = k // bands
    sig, has_fp = rabin_minhash_signatures(toks, k=k, n=5)
    old = set()
    for i, (b_, ok) in enumerate(zip(bk, has_fp)):
        if b_ < 80 and ok:
            for b in range(bands):
                old.add((b, tuple(sig[i, b * r : (b + 1) * r])))
    want = []
    for i, (b_, ok) in enumerate(zip(bk, has_fp)):
        if b_ >= 80 and ok:
            n = sum((b, tuple(sig[i, b * r : (b + 1) * r])) in old for b in range(bands))
            if n:
                want.append((int(df["doc_id"].iloc[i]), n))
    assert list(map(tuple, got[["doc_id", "n_hits"]].values.tolist())) == sorted(want)


def test_neardup_index_flags_planted_near_copy(ray_session, tmp_path):
    """A new doc that is a near-copy of an indexed doc collides in all
    bands; an unrelated doc collides in none."""
    import ray.data

    from texrex_ray.dedup.incremental import build_neardup_index, neardup_candidates

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omicron pi rho sigma tau upsilon") * 3
    old = ray.data.from_items([{"doc_id": 1, "text": base}])
    d = str(tmp_path / "nd")
    build_neardup_index(old, d)
    new = ray.data.from_items(
        [
            {"doc_id": 10, "text": base},  # exact copy: all 8 bands hit
            {"doc_id": 11, "text": "totally different words here " * 20},
        ]
    )
    out = neardup_candidates(new, d).to_pandas()
    assert out["doc_id"].tolist() == [10]
    assert out["n_hits"].tolist() == [8]
