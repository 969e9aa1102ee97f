"""Round-4 late-batch operators: OPIC importance and friends."""

import numpy as np
import pandas as pd
import ray.data

from texrex_ray.ops.graph import opic_int, opic_sequential


def test_opic_matches_sequential(ray_session):
    rng = np.random.default_rng(11)
    nodes = [f"n{i}" for i in range(60)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(60)
        for j in range(60)
        if i != j and rng.random() < 0.05
    ]
    # guarantee dangling nodes (appear only as dst) so the virtual-root
    # pot path is exercised
    edges += [(nodes[0], "sink_a"), (nodes[1], "sink_b")]
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = opic_int(ds, rounds=4)
    want = opic_sequential(edges, rounds=4)
    assert dict(zip(got["page"], got["importance"])) == want


def test_opic_star_graph_analytic(ray_session):
    # hub -> k leaves: leaves are dangling, their cash cycles through the
    # virtual root.  Round algebra is small enough to check by hand for
    # rounds=1: C1(leaf) = scale//k + pot//n with pot = k*scale (leaves)
    # ... hub is NOT dangling, so pot = k*scale only if leaves held cash.
    k, scale = 4, 1_000_000
    edges = [("hub", f"leaf{i}") for i in range(k)]
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = opic_int(ds, rounds=1, scale=scale)
    n = k + 1
    pot = k * scale  # every leaf is dangling with C0 = scale
    c1_leaf = scale // k + pot // n
    c1_hub = pot // n
    want = {f"leaf{i}": scale + c1_leaf for i in range(k)}
    want["hub"] = scale + c1_hub
    assert dict(zip(got["page"], got["importance"])) == want


def test_opic_cash_conservation_bound(ray_session):
    # total importance <= (rounds+1) * n * scale (floor losses only shrink)
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = opic_int(ds, rounds=5)
    n, scale = 4, 1_000_000
    total = int(got["importance"].sum())
    assert total <= 6 * n * scale
    assert total >= 5 * n * scale  # floors lose < n per division


# ---------------------------------------------------------------- BPE encode

def test_bpe_encode_matches_sequential(ray_session):
    from texrex_ray.functions.bpe import (
        bpe_encode,
        bpe_encode_sequential,
        bpe_train_sequential,
    )
    from collections import Counter
    import re

    texts = {
        1: "the cat sat on the mat",
        2: "the cats sat on the mats",
        3: "banana bandana cabana",
        4: "aaa aaaa ab abc abcd",
        5: "",
    }
    wc = Counter()
    tok = re.compile(r"[a-z]+")
    for s in texts.values():
        wc.update(tok.findall(s))
    merges = [(l, r) for l, r, _ in bpe_train_sequential(dict(wc), 8)]
    want = bpe_encode_sequential(texts, merges)
    ds = ray.data.from_items(
        [{"doc_id": k, "text": v} for k, v in texts.items()]
    )
    got = bpe_encode(ds, merges).to_pandas().set_index("doc_id")
    for did, (nw, ns, nd) in want.items():
        row = got.loc[did]
        assert (row["n_words"], row["n_subwords"], row["n_distinct_subwords"]) == (
            nw,
            ns,
            nd,
        )


def test_bpe_encode_greedy_and_rank_order():
    from texrex_ray.functions.bpe import _encode_word

    # greedy left-to-right: "aaa" + ("a","a") -> [aa, a, </w>]
    assert _encode_word("aaa", {("a", "a"): 0}) == ["aa", "a", "</w>"]
    # rank priority: ("b","c") ranks better than ("a","b") -> a + bc
    ranks = {("a", "b"): 1, ("b", "c"): 0}
    assert _encode_word("abc", ranks) == ["a", "bc", "</w>"]
    # compounding: ab then ab+c
    ranks = {("a", "b"): 0, ("ab", "c"): 1}
    assert _encode_word("abc", ranks) == ["abc", "</w>"]
    # untouched word: chars + EOW
    assert _encode_word("xy", {}) == ["x", "y", "</w>"]


# ------------------------------------------------- weighted sample (q130)

def test_weighted_sample_matches_direct_recompute(ray_session):
    import hashlib

    import pyarrow.parquet as pq

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.corpus_ops import WSAMPLE_K

    sf = "/root/testdata/sf0.001"
    got = QUERIES["q130_weighted_sample"](sf)
    df = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    ).to_pandas()
    df["key"] = [
        int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:], "little")
        * 1_000_000
        // max(int(w), 1)
        for i, w in zip(df["doc_id"], df["n_chars"])
    ]
    want = (
        df.sort_values(["source", "key", "doc_id"])
        .groupby("source", sort=False)
        .head(WSAMPLE_K)[["source", "doc_id"]]
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    # determinism across runs
    again = QUERIES["q130_weighted_sample"](sf)
    pd.testing.assert_frame_equal(got, again)


# ------------------------------------------- cross-modal dedup (q132)

def _crossmodal_brute(rows, max_hamming=6, num=3, den=5):
    """Pure-python twin: union pairs -> components -> argmax survivor."""
    import itertools
    import re

    tok = re.compile(r"[a-z]+")

    def grams(s):
        t = tok.findall((s or "").lower())
        return {a + " " + b for a, b in zip(t, t[1:])}

    ids = [r["image_id"] for r in rows]
    by = {r["image_id"]: r for r in rows}
    edges = set()
    for a, b in itertools.combinations(sorted(ids), 2):
        ra, rb = by[a], by[b]
        d = bin((ra["phash"] & (1 << 64) - 1) ^ (rb["phash"] & (1 << 64) - 1)).count("1")
        ga, gb = grams(ra["caption"]), grams(rb["caption"])
        jacc = (
            ga and gb and den * len(ga & gb) >= num * len(ga | gb)
        )
        if d <= max_hamming or jacc:
            edges.add((a, b))
    # components by repeated relabel
    lab = {i: i for e in edges for i in e}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            m = min(lab[a], lab[b])
            if lab[a] != m or lab[b] != m:
                lab[a] = lab[b] = m
                changed = True
    clusters = {}
    for i, c in lab.items():
        clusters.setdefault(c, []).append(i)
    out = []
    for c, members in clusters.items():
        best = max(
            members, key=lambda i: (by[i]["w"] * by[i]["h"], ""), default=None
        )
        # ties to smaller id: sort by (px desc, id asc)
        best = sorted(members, key=lambda i: (-by[i]["w"] * by[i]["h"], i))[0]
        out.append(
            {
                "cluster_id": c,
                "n_members": len(members),
                "canonical_id": best,
                "canonical_px": by[best]["w"] * by[best]["h"],
            }
        )
    return pd.DataFrame(sorted(out, key=lambda r: r["cluster_id"]))


def test_crossmodal_clusters_matches_bruteforce(ray_session):
    from texrex_ray.dedup.crossmodal import crossmodal_clusters

    rows = [
        # pixel pair (2 bits apart), different captions
        {"image_id": "a1", "phash": 0b1111, "caption": "red fox jumps high", "w": 32, "h": 32},
        {"image_id": "a2", "phash": 0b1100, "caption": "completely different words here", "w": 64, "h": 16},
        # caption pair, far phash
        {"image_id": "b1", "phash": 1 << 40, "caption": "the quick brown fox jumps over the lazy dog", "w": 16, "h": 16},
        {"image_id": "b2", "phash": (1 << 63) - 1, "caption": "the quick brown fox jumps over the lazy cat", "w": 16, "h": 32},
        # bridge: near b2's caption AND near a1's phash -> merges all
        {"image_id": "c1", "phash": 0b1011, "caption": "the quick brown fox jumps over the lazy rat", "w": 48, "h": 48},
        # isolated: 24 bits set -> Hamming >= 20 from every other phash
        {"image_id": "z9", "phash": 0x5555555555550000, "caption": "nothing matches this text at all", "w": 128, "h": 128},
    ]
    ds = ray.data.from_items(rows)
    got = crossmodal_clusters(ds, max_hamming=6, jaccard_num=3, jaccard_den=5)
    want = _crossmodal_brute(rows)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want.astype({"n_members": "int64", "canonical_px": "int64"}).reset_index(
            drop=True
        ),
    )
    # the bridge must have fused pixel- and caption-sides into one cluster
    assert int(got["n_members"].max()) == 5


def test_crossmodal_clusters_empty(ray_session):
    from texrex_ray.dedup.crossmodal import crossmodal_clusters

    rows = [
        {"image_id": "x1", "phash": 0, "caption": "alpha beta gamma", "w": 1, "h": 1},
        {"image_id": "x2", "phash": (1 << 60) - 1, "caption": "delta epsilon zeta", "w": 1, "h": 1},
    ]
    ds = ray.data.from_items(rows)
    got = crossmodal_clusters(ds, max_hamming=2, jaccard_num=1, jaccard_den=1)
    assert got.empty
    assert list(got.columns) == ["cluster_id", "n_members", "canonical_id", "canonical_px"]


# --------------------------------------------- NB classifier (q133)

def test_nb_classifier_matches_sequential(ray_session):
    from texrex_ray.functions.classify import (
        classify,
        classify_sequential,
        train_class_weights,
    )

    train_rows = [
        ("en", "the cat sat on the mat with the dog"),
        ("en", "a dog and a cat play in the park"),
        ("de", "der hund und die katze spielen im park"),
        ("de", "die katze sitzt auf der matte mit dem hund"),
        ("fr", "le chat et le chien jouent dans le parc"),
    ]
    test_rows = [
        (1, "the cat and the dog"),
        (2, "der hund im park"),
        (3, "le chat dans le parc"),
        (4, "cat katze chat"),  # genuinely ambiguous -> tie rule decides
        (5, ""),  # no tokens -> dropped
    ]
    want = classify_sequential(train_rows, test_rows)
    tr = ray.data.from_items(
        [{"lang": l, "text": s} for l, s in train_rows]
    )
    te = ray.data.from_items(
        [{"doc_id": i, "text": s} for i, s in test_rows]
    )
    w, d, v = train_class_weights(tr)
    got = classify(te, w, d).to_pandas().set_index("doc_id")
    assert set(got.index) == set(want)
    for did, (lab, sc) in want.items():
        assert got.loc[did, "pred"] == lab
        assert int(got.loc[did, "score"]) == sc
    assert v == len({t for _, s in train_rows for t in s.split()})


# --------------------------------------------- zone-map pruning

def test_zonemap_pruned_read(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from texrex_ray.sources.zonemap import fragment_zones, pruned_read

    # 8 fragments laid out by key range: file k holds keys [100k, 100k+99]
    d = tmp_path / "frags"
    d.mkdir()
    for k in range(8):
        keys = list(range(100 * k, 100 * k + 100))
        pq.write_table(
            pa.table({"key": pa.array(keys, pa.int64()),
                      "payload": pa.array([f"v{v}" for v in keys])}),
            str(d / f"part{k}.parquet"),
        )

    zones = fragment_zones(str(d), "key")
    assert len(zones) == 8 and zones[0].vmin == 0 and zones[0].vmax == 99

    ds, stats = pruned_read(str(d), column="key", lo=250, hi=449)
    assert stats["files_total"] == 8
    assert stats["files_kept"] == 3      # parts 2,3,4 overlap [250,449]
    assert stats["files_pruned"] == 5
    assert stats["rows_skipped"] == 500
    got = sorted(r["key"] for r in ds.take_all())
    assert got == list(range(250, 450))  # residual filter still exact

    # empty window -> schema-stable empty dataset, everything pruned
    ds0, st0 = pruned_read(str(d), column="key", lo=5000, hi=6000)
    assert st0["files_kept"] == 0 and ds0.count() == 0
    assert ds0.schema().names == ["key", "payload"]

    # column pruning keeps the filter column internal when not requested
    ds2, _ = pruned_read(str(d), column="key", lo=0, hi=99, columns=["payload"])
    rows = ds2.take_all()
    assert len(rows) == 100 and set(rows[0].keys()) == {"payload"}


# -------------------------------------- heavy hitters (q135) / strat (q136)

def test_topm_summary_upper_bound_and_exactness(ray_session):
    from collections import Counter

    from texrex_ray.ops.spacesaving import heavy_hitters, topm_summary

    # zipf-ish stream split over many small blocks
    rng = np.random.default_rng(5)
    items = [f"w{int(z)}" for z in rng.zipf(1.6, 4000) if z < 60]
    truth = Counter(items)
    ds = ray.data.from_items([{"x": i} for i in items]).repartition(16)

    def items_of(t):
        return t["x"].to_pylist()

    thr = 30
    # m=4 over 16 blocks: residuals sum past the threshold -> the op must
    # refuse the sketch and fall back to the exact keyed count
    got = heavy_hitters(ds, items_of, threshold=thr, m=4)
    want = sorted(
        ((k, v) for k, v in truth.items() if v >= thr),
        key=lambda kv: (-kv[1], kv[0]),
    )
    assert list(map(tuple, got.itertuples(index=False))) == want

    # m >= vocab: residuals are 0, the certified sketch path runs
    got2 = heavy_hitters(ds, items_of, threshold=thr, m=64)
    assert list(map(tuple, got2.itertuples(index=False))) == want

    # m larger than vocab -> summary IS the exact count, resid 0
    kept, resid = topm_summary(Counter({"a": 5, "b": 2}), m=10)
    assert kept == [("a", 5), ("b", 2)] and resid == 0
    # truncation keeps count-desc/item-asc ties and reports max discarded
    kept, resid = topm_summary(Counter({"a": 5, "b": 5, "c": 4}), m=1)
    assert kept == [("a", 5)] and resid == 5


def test_proportional_sample_budget_exact(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.corpus_ops import STRAT_BUDGET

    got = QUERIES["q136_proportional_sample"]("/root/testdata/sf0.001")
    assert len(got) == STRAT_BUDGET  # Hamilton quotas sum EXACTLY
    assert got["doc_id"].is_unique
    # proportionality: no source exceeds its ceiling quota by > 1
    import pyarrow.parquet as pq

    df = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["source"]
    ).to_pandas()
    share = df["source"].value_counts(normalize=True)
    took = got["source"].value_counts()
    for s, k in took.items():
        assert abs(k - STRAT_BUDGET * share[s]) <= 1.0


# ------------------------------------- warm-start pagerank (q137)

def test_pagerank_warm_start_equals_straight_run(ray_session):
    from texrex_ray.ops.graph import pagerank_int

    rng = np.random.default_rng(23)
    nodes = [f"p{i}" for i in range(50)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(50)
        for j in range(50)
        if i != j and rng.random() < 0.06
    ]
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])

    straight = pagerank_int(ds, iters=5)
    first3 = pagerank_int(ds, iters=3)
    warm = pagerank_int(ds, iters=2, init_ranks=first3)
    pd.testing.assert_frame_equal(warm, straight)

    # Dataset prior on the shuffle plan (the checkpoint-table path;
    # dict priors route through the same join, so one case covers both)
    prior_ds = ray.data.from_arrow(
        __import__("pyarrow").table(
            {
                "page": first3["page"].tolist(),
                "rank": first3["rank"].tolist(),
            }
        )
    )
    warm_ds = pagerank_int(ds, iters=2, plan="shuffle", init_ranks=prior_ds)
    pd.testing.assert_frame_equal(warm_ds, straight)


def test_pagerank_warm_start_missing_nodes_cold_start(ray_session):
    from texrex_ray.ops.graph import pagerank_int

    edges = [("a", "b"), ("b", "c"), ("c", "a")]
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    # prior knows only 'a'; b and c must cold-start at scale
    warm = pagerank_int(ds, iters=1, init_ranks={"a": 42})
    # manual: contrib a=42//1, b=1000000//1, c=1000000//1
    want = {
        "b": 150000 + 850 * 42 // 1000,
        "c": 150000 + 850 * 1_000_000 // 1000,
        "a": 150000 + 850 * 1_000_000 // 1000,
    }
    assert dict(zip(warm["page"], warm["rank"])) == want


# ------------------------------------ co-partitioned join (q138)

def test_copartitioned_join_matches_pandas(ray_session, tmp_path):
    import pytest

    from texrex_ray.ops.bucket_join import copartitioned_join
    from texrex_ray.state.resume import write_partitioned_by_key

    rng = np.random.default_rng(31)
    a = pd.DataFrame(
        {"k": rng.integers(0, 40, 200), "va": rng.integers(0, 1000, 200)}
    )
    b = pd.DataFrame(
        {"k": rng.integers(0, 50, 300), "vb": rng.integers(0, 1000, 300)}
    )
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    write_partitioned_by_key(ray.data.from_pandas(a), da, "k", 8)
    write_partitioned_by_key(ray.data.from_pandas(b), db, "k", 8)

    got = (
        copartitioned_join(da, db, "k", how="inner")
        .to_pandas()
        .sort_values(["k", "va", "vb"])
        .reset_index(drop=True)
    )
    want = (
        a.merge(b, on="k", how="inner")
        .sort_values(["k", "va", "vb"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"k": "int64", "va": "int64", "vb": "int64"}), want
    )

    # left join keeps unmatched left rows
    gl = copartitioned_join(da, db, "k", how="left").to_pandas()
    assert len(gl) == len(a.merge(b, on="k", how="left"))

    # layout mismatch (different bucket counts) must raise loudly
    dc = str(tmp_path / "c")
    write_partitioned_by_key(ray.data.from_pandas(b), dc, "k", 4)
    with pytest.raises(ValueError, match="layout mismatch"):
        copartitioned_join(da, dc, "k")


# ---------------------------------- incremental quantiles (q139)

def test_histogram_state_merge_identity(ray_session):
    from texrex_ray.ops.quantiles import (
        grouped_exact_quantiles,
        histogram_state,
        quantiles_from_states,
    )

    rng = np.random.default_rng(41)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 500),
            "v": rng.integers(0, 50, 500).astype("int64"),
            "shard": rng.integers(0, 4, 500),
        }
    )
    full = ray.data.from_pandas(df[["g", "v"]])
    # shard-by-shard states must merge to the full-corpus state
    states = [
        histogram_state(ray.data.from_pandas(part[["g", "v"]]), "g", "v")
        for _, part in df.groupby("shard")
    ]
    merged = (
        pd.concat(states).groupby(["g", "v"], as_index=False)["cnt"].sum()
    )
    direct = histogram_state(full, "g", "v")
    pd.testing.assert_frame_equal(
        merged.sort_values(["g", "v"]).reset_index(drop=True),
        direct.sort_values(["g", "v"]).reset_index(drop=True),
    )
    # counts conserve exactly (a doubled merge would pass quantiles
    # unchanged -- the count identity is the real incremental gate)
    assert int(merged["cnt"].sum()) == len(df)

    got = quantiles_from_states(states, "g", "v", [0.5, 0.9])
    want = (
        grouped_exact_quantiles(full, "g", "v", [0.5, 0.9])
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.sort_values("g").reset_index(drop=True)[want.columns], want
    )


# ------------------------------------- local PPR push (q140)

def test_ppr_push_matches_sequential(ray_session):
    from texrex_ray.ops.graph import ppr_push_int, ppr_push_sequential

    rng = np.random.default_rng(7)
    nodes = [f"n{i}" for i in range(40)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(40)
        for j in range(40)
        if i < j and rng.random() < 0.08
    ]
    edges += edges[:5] + [(b, a) for a, b in edges[:5]]  # dups + reversed
    edges += [("n0", "n0")]  # self loop dropped
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = ppr_push_int(ds, "n0", max_rounds=12)
    want = ppr_push_sequential(edges, "n0", max_rounds=12)
    assert {
        r["page"]: (r["p"], r["r"]) for _, r in got.iterrows()
    } == want


def test_ppr_push_locality_and_mass(ray_session):
    from texrex_ray.ops.graph import ppr_push_int

    # two cliques joined by one bridge edge: mass must concentrate in
    # the seed's clique
    k1 = [f"a{i}" for i in range(6)]
    k2 = [f"b{i}" for i in range(6)]
    edges = [(x, y) for i, x in enumerate(k1) for y in k1[i + 1 :]]
    edges += [(x, y) for i, x in enumerate(k2) for y in k2[i + 1 :]]
    edges += [("a0", "b0")]
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = ppr_push_int(ds, "a0")
    by = dict(zip(got["page"], got["p"]))
    mass_a = sum(v for k, v in by.items() if k.startswith("a"))
    mass_b = sum(v for k, v in by.items() if k.startswith("b"))
    assert mass_a > 5 * max(mass_b, 1)
    # total mass conserved modulo floors: p + r <= scale
    assert int(got["p"].sum() + got["r"].sum()) <= 1_000_000


def test_ppr_push_isolated_seed(ray_session):
    from texrex_ray.ops.graph import ppr_push_int

    ds = ray.data.from_items([{"src": "x", "dst": "y"}])
    got = ppr_push_int(ds, "lonely")
    assert got.iloc[0].tolist() == ["lonely", 1_000_000, 0]


# ------------------------------------ greedy seed cover (q142)

def test_greedy_seed_cover_matches_sequential(ray_session):
    from texrex_ray.ops.graph import (
        greedy_seed_cover,
        greedy_seed_cover_sequential,
    )

    rng = np.random.default_rng(13)
    edges = [
        (f"s{int(rng.integers(0, 12))}", f"p{int(rng.integers(0, 80))}")
        for _ in range(400)
    ]
    edges += edges[:20]  # multi-edges must not inflate gains
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = greedy_seed_cover(ds, k=4)
    want = greedy_seed_cover_sequential(edges, 4)
    assert list(map(tuple, got.itertuples(index=False))) == want


def test_greedy_seed_cover_analytic(ray_session):
    from texrex_ray.ops.graph import greedy_seed_cover

    # a covers 1-3, b covers 3-5 (overlap 3), c covers 6 only
    edges = (
        [("a", f"x{i}") for i in (1, 2, 3)]
        + [("b", f"x{i}") for i in (3, 4, 5)]
        + [("c", "x6")]
    )
    ds = ray.data.from_items([{"src": a, "dst": b} for a, b in edges])
    got = greedy_seed_cover(ds, k=3)
    assert list(map(tuple, got.itertuples(index=False))) == [
        (0, "a", 3),  # ties a/b at 3 -> smaller src
        (1, "b", 2),  # x3 already covered
        (2, "c", 1),
    ]
