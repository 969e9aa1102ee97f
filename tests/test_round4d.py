"""Round-4 batch D: outer join, KMV sketch, sorted-neighborhood dedup,
and the sorted_positions rank helper."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from texrex_ray.ops.shuffle import sorted_positions

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------ sorted_positions

def test_sorted_positions_matches_argsort(ray_session):
    rng = np.random.default_rng(7)
    keys = [f"k{int(v):06d}" for v in rng.permutation(500)]
    ds = ray.data.from_items([{"k": k} for k in keys]).repartition(7)
    out = sorted_positions(ds, "k", pos_col="rn").to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert out["rn"].tolist() == list(range(1, 501))


def test_sorted_positions_layout_invariant(ray_session):
    keys = [f"x{i:04d}" for i in range(200)]
    a = sorted_positions(
        ray.data.from_items([{"k": k} for k in reversed(keys)]).repartition(3), "k"
    ).to_pandas()
    b = sorted_positions(
        ray.data.from_items([{"k": k} for k in keys]).repartition(11), "k"
    ).to_pandas()
    am = dict(zip(a["k"], a["rn"]))
    bm = dict(zip(b["k"], b["rn"]))
    assert am == bm


def test_sorted_positions_rejects_duplicate_keys(ray_session):
    # duplicates straddling block boundaries make ranks ambiguous — the
    # two-phase pass must refuse, not renumber silently
    ds = ray.data.from_items([{"k": "same"} for _ in range(100)]).repartition(4)
    with pytest.raises(Exception, match="overlap|share|duplicate"):
        sorted_positions(ds, "k").to_pandas()


# ------------------------------------------------------------------- q143

def test_outer_join_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q143_outer_join"](SF)
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    l = (
        orders[orders["o_orderstatus"] == "O"]
        .groupby("o_custkey")
        .agg(n_open=("o_totalprice", "size"), tot=("o_totalprice", "sum"))
        .reset_index()
        .rename(columns={"o_custkey": "custkey"})
    )
    l["open_total_c"] = (l["tot"] * 100).round().astype("int64")
    r = cust[cust["c_acctbal"] > 5000.0][["c_custkey", "c_acctbal"]].rename(
        columns={"c_custkey": "custkey"}
    )
    r["acctbal_c"] = (r["c_acctbal"] * 100).round().astype("int64")
    m = l[["custkey", "n_open", "open_total_c"]].merge(
        r[["custkey", "acctbal_c"]], on="custkey", how="outer"
    )
    m["n_open"] = m["n_open"].fillna(0).astype("int64")
    m["open_total_c"] = m["open_total_c"].fillna(0).astype("int64")
    m["acctbal_c"] = m["acctbal_c"].fillna(-1).astype("int64")
    m = m.sort_values("custkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, m.astype({"custkey": "int64"}))
    # both sides must contribute unmatched rows or the test is vacuous
    assert (got["acctbal_c"] == -1).any()
    assert (got["n_open"] == 0).any()


# ------------------------------------------------------------------- q144

def test_kmv_matches_serial_recompute(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import KMV_K
    from texrex_ray.pipelines.queries.flagships import _TOKEN_RE

    got = QUERIES["q144_kmv_distinct"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for src, grp in docs.groupby("source"):
        grams = set()
        for txt in grp["text"]:
            toks = _TOKEN_RE.findall((txt or "").lower())
            grams |= {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}
        hk = np.sort(md5_lower64(sorted(grams)))
        est = (
            ((KMV_K - 1) << 64) // int(hk[KMV_K - 1])
            if len(hk) >= KMV_K
            else len(hk)
        )
        want[src] = (len(grams), est)
    for _, row in got.iterrows():
        assert want[row["source"]] == (row["n_exact"], row["kmv_est"])
    # the sketch path (not the exact fallback) must be exercised
    assert (got["n_exact"] >= KMV_K).any()
    assert (got["kmv_est"] != got["n_exact"]).any()


# ------------------------------------------------------------------- q145

def _snm_serial(docs: pd.DataFrame, w: int) -> set[tuple]:
    import re

    keyed = sorted(
        (re.sub(r"[^a-z]+", " ", (t or "").lower())[:24], i)
        for i, t in zip(docs["doc_id"], docs["text"])
    )
    gram_sets = {}
    for i, t in zip(docs["doc_id"], docs["text"]):
        toks = re.findall(r"[a-z]+", (t or "").lower())
        gram_sets[i] = {" ".join(toks[j : j + 3]) for j in range(len(toks) - 2)}
    out = set()
    ids = [i for _, i in keyed]
    for a in range(len(ids)):
        for b in range(a + 1, min(a + w + 1, len(ids))):
            ga, gb = gram_sets[ids[a]], gram_sets[ids[b]]
            inter = len(ga & gb)
            union = len(ga) + len(gb) - inter
            if inter * 2 >= union and inter > 0:
                lo, hi = sorted((ids[a], ids[b]))
                out.add((lo, hi, inter, union))
    return out


def test_sorted_neighborhood_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import SNM_W

    got = QUERIES["q145_sorted_neighborhood"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = _snm_serial(docs, SNM_W)
    have = set(map(tuple, got.to_numpy()))
    assert have == want
    assert len(have) > 0


# ------------------------------------------------------------------- q146

def test_zorder_improves_locality(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q146_zorder_layout"](SF).set_index("layout")
    # the whole point of the curve: fragment bounding boxes shrink on the
    # non-leading dimension without blowing up the leading one
    assert got.loc["zorder", "sum_dy"] < got.loc["id", "sum_dy"]
    assert got.loc["zorder", "n_frag"] == got.loc["id", "n_frag"]


def test_morton_code_interleave():
    # spot-check the bit interleave against string weaving
    for x, y in [(0, 0), (1, 0), (0, 1), (65535, 0), (0, 65535), (1234, 4321)]:
        zc = 0
        for i in range(16):
            zc += ((x >> i) & 1) << (2 * i)
            zc += ((y >> i) & 1) << (2 * i + 1)
        xb = f"{x:016b}"
        yb = f"{y:016b}"
        woven = "".join(a + b for a, b in zip(yb, xb))
        assert zc == int(woven, 2)


# ------------------------------------------------------------------- q147

def test_dbscan_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import (
        DBSCAN_DEN, DBSCAN_MINPTS, DBSCAN_NUM, DBSCAN_SCALE,
    )

    got = QUERIES["q147_embed_dbscan"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    ids = emb["vec_id"].to_numpy()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64) * DBSCAN_SCALE
    m = np.where(m >= 0, np.floor(m + 0.5), np.ceil(m - 0.5)).astype(np.int64)
    dot = m @ m.T
    n2 = (m * m).sum(axis=1)
    ok = (dot > 0) & (
        DBSCAN_DEN**2 * dot * dot >= DBSCAN_NUM**2 * n2[:, None] * n2[None, :]
    )
    np.fill_diagonal(ok, False)
    deg = ok.sum(axis=1)
    core_idx = np.nonzero(deg >= DBSCAN_MINPTS)[0]
    core = set(ids[core_idx])
    # components over core-core edges (min-label to fixpoint)
    lab = {int(ids[i]): int(ids[i]) for i in core_idx}
    changed = True
    while changed:
        changed = False
        for i in core_idx:
            for j in core_idx:
                if ok[i, j]:
                    a, b = int(ids[i]), int(ids[j])
                    mn = min(lab[a], lab[b])
                    if lab[a] != mn or lab[b] != mn:
                        lab[a] = lab[b] = mn
                        changed = True
    want = {}
    for k, i in enumerate(ids):
        i = int(i)
        if i in core:
            want[i] = (lab[i], "core")
        else:
            neigh = [int(ids[j]) for j in np.nonzero(ok[k])[0] if int(ids[j]) in core]
            if neigh:
                want[i] = (min(lab[n] for n in neigh), "border")
            else:
                want[i] = (-1, "noise")
    for _, row in got.iterrows():
        assert want[row["vec_id"]] == (row["cluster_id"], row["role"]), row["vec_id"]
    # all three roles must occur or the parameters are degenerate
    assert set(got["role"]) == {"core", "border", "noise"}


# ------------------------------------------------------------------- q148

def test_chi2_matches_serial(ray_session):
    import re
    from collections import Counter

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import CHI2_SCALE

    got = QUERIES["q148_source_divergence"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    cnt = Counter()
    for src, txt in zip(docs["source"], docs["text"]):
        for tok in re.findall(r"[a-z]+", (txt or "").lower()):
            cnt[(src, tok)] += 1
    sources = sorted({s for s, _ in cnt})
    vocab = sorted({t for _, t in cnt})
    ns = {s: sum(n for (a, _), n in cnt.items() if a == s) for s in sources}
    nt = {t: sum(n for (_, b), n in cnt.items() if b == t) for t in vocab}
    nn = sum(cnt.values())
    for _, row in got.iterrows():
        s = row["source"]
        chi = 0
        for t in vocab:
            n = cnt.get((s, t), 0)
            d = n * nn - ns[s] * nt[t]
            chi += d * d * CHI2_SCALE // (ns[s] * nt[t] * nn)
        assert chi == row["chi2_c"], s


# ------------------------------------------------------------------- q149

def test_audio_fingerprint_recovers_twins(ray_session):
    import ray.data as rd

    from texrex_ray.dedup.lsh import hamming_pairs
    from texrex_ray.pipelines.queries.analytics_a import AUDIO_FP_TWIN
    from texrex_ray.sources.av import fixture_path
    from texrex_ray.stages.av import AudioFingerprint

    n = 40
    d = fixture_path(n=n, seed=42)
    sigs = rd.read_parquet(f"{d}/audio.parquet").map_batches(
        AudioFingerprint(twin_offset=AUDIO_FP_TWIN),
        batch_format="pyarrow",
        batch_size=16,
    )
    pairs = hamming_pairs(
        sigs, id_col="clip_id", sig_col="simhash", max_hamming=2,
        expected_rows=2 * n,
    ).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    for i in range(n):
        assert (i, i + AUDIO_FP_TWIN) in found, f"twin of clip {i} not recovered"


def test_audio_fingerprint_formula_is_order_stat():
    from texrex_ray.stages.av import audio_fingerprint

    # monotone energy ramp -> all 64 bits set; flat -> none
    up = np.concatenate([np.full(10, a, np.int16) for a in range(1, 66)])
    assert audio_fingerprint(up) == (1 << 64) - 1
    assert audio_fingerprint(np.full(650, 5, np.int16)) == 0


def test_audio_fp_fixture_fresh(ray_session):
    """Committed q149 oracle fixture matches a live recompute through the
    stage + LSH path at the fixture's own scale (150 clips)."""
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q149_audio_fingerprint"]("/root/testdata/sf0.01")
    want = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/audio_fp_pairs_sf0.01.parquet"
    ).sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype("int64"))


# ------------------------------------------------------------------- q150

def test_phrase_search_matches_serial(ray_session):
    import re

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PHRASE

    got = QUERIES["q150_phrase_search"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for did, txt in zip(docs["doc_id"], docs["text"]):
        toks = re.findall(r"[a-z]+", (txt or "").lower())
        n = sum(
            1
            for i in range(len(toks) - 1)
            if toks[i] == PHRASE[0] and toks[i + 1] == PHRASE[1]
        )
        if n:
            want[did] = n
    assert dict(zip(got["doc_id"], got["n_phrase"])) == want
    assert len(want) > 0
