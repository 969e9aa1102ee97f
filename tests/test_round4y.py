"""Round-4 batch Y: caption truncation, fold balance, label propagation."""

import hashlib
import re

import pandas as pd

SF = "/root/testdata/sf0.001"
EDGES = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"


# ------------------------------------------------------------------- q237

def test_caption_truncation_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import TRUNC_LIMIT

    got = QUERIES["q237_caption_truncation"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    tok = re.compile(r"[a-z0-9]+")
    want = {}
    for fmt, sub in imgs.groupby("fmt"):
        n_tok = sub["caption"].map(lambda c: len(tok.findall(c.lower())))
        lost = (n_tok - TRUNC_LIMIT).clip(lower=0)
        want[fmt] = (
            len(sub), int(n_tok.sum()), int((n_tok > TRUNC_LIMIT).sum()),
            int(lost.sum()), int(lost.sum()) * PPM // int(n_tok.sum()),
        )
    have = {
        r["fmt"]: (
            int(r["n_captions"]), int(r["n_tokens"]), int(r["n_truncated"]),
            int(r["lost_tokens"]), int(r["lost_ppm"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # the limit was chosen to bite: some caption must overflow it
    assert sum(v[2] for v in have.values()) > 0


# ------------------------------------------------------------------- q238

def test_fold_balance_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import N_FOLDS

    got = QUERIES["q238_fold_balance"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    folds = docs["doc_id"].map(
        lambda i: int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[8:], "little"
        ) % N_FOLDS
    )
    cnt = (
        pd.DataFrame({"fold": folds, "lang": docs["lang"]})
        .groupby(["fold", "lang"])
        .size()
    )
    lang_tot = docs.groupby("lang").size()
    want = {
        (int(f), l): (int(n), N_FOLDS * int(n) - int(lang_tot[l]))
        for (f, l), n in cnt.items()
    }
    have = {
        (int(r["fold"]), r["lang"]): (int(r["n_docs"]), int(r["dev_num"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # deviations sum to zero within each lang (exact identity)
    assert got.groupby("lang")["dev_num"].sum().eq(0).all()
    # every document is in exactly one fold
    assert got["n_docs"].sum() == len(docs)


# ------------------------------------------------------------------- q239

def test_label_propagation_matches_sequential(ray_session):
    from texrex_ray.ops.graph import (
        label_propagation,
        label_propagation_sequential,
    )
    import ray

    edges = pd.read_parquet(EDGES)
    want = label_propagation_sequential(
        list(zip(edges["src"], edges["dst"])), iters=3
    )
    ds = ray.data.read_parquet(EDGES)
    got = label_propagation(ds, iters=3)
    have = dict(zip(got["page"], got["label"]))
    assert have == want


def test_label_propagation_layout_invariant(ray_session):
    import ray
    from texrex_ray.ops.graph import label_propagation

    ds1 = ray.data.read_parquet(EDGES).repartition(2)
    ds2 = ray.data.read_parquet(EDGES).repartition(13)
    a = label_propagation(ds1, iters=2)
    b = label_propagation(ds2, iters=2)
    pd.testing.assert_frame_equal(a, b)


def test_label_propagation_collapses_triangle(ray_session):
    from texrex_ray.ops.graph import label_propagation_sequential

    lab = label_propagation_sequential(
        [("b", "c"), ("c", "a"), ("a", "b")], iters=4
    )
    assert set(lab.values()) == {"a"}  # min label wins the triangle
