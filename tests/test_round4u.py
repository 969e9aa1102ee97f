"""Round-4 batch U: vocab growth, l-diversity, boilerplate n-grams."""

import re

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q225

def test_vocab_growth_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import VOCAB_WINDOW

    got = QUERIES["q225_vocab_growth"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet").sort_values(
        ["source", "doc_id"]
    )
    tok = re.compile(r"[a-z]+")
    want = {}
    for src, sub in docs.groupby("source"):
        seen: set[str] = set()
        for r, (_, row) in enumerate(sub.iterrows()):
            w = r // VOCAB_WINDOW
            types = set(tok.findall(row["text"].lower()))
            new = len(types - seen)
            seen |= types
            nd, nn = want.get((src, w), (0, 0))
            want[(src, w)] = (nd + 1, nn + new)
    # fold in cumulative
    have = {}
    for _, r in got.iterrows():
        have[(r["source"], int(r["window_idx"]))] = (
            int(r["n_docs"]), int(r["n_new_types"])
        )
    assert have == want
    # cumulative equals the running sum and is non-decreasing
    for src, sub in got.groupby("source"):
        sub = sub.sort_values("window_idx")
        assert (sub["cum_types"] == sub["n_new_types"].cumsum()).all()
        assert (sub["n_new_types"].iloc[0] >= sub["n_new_types"].iloc[-1])


# ------------------------------------------------------------------- q226

def test_l_diversity_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import LDIV_BAND, LDIV_L

    got = QUERIES["q226_l_diversity"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    docs = docs.assign(band=docs["n_chars"] // LDIV_BAND)
    want = {}
    for (lang, band), sub in docs.groupby(["lang", "band"]):
        ns = sub["source"].nunique()
        want[(lang, int(band))] = (len(sub), ns, 1 if ns >= LDIV_L else 0)
    have = {
        (r["lang"], int(r["band"])): (
            int(r["n_rows"]), int(r["n_sources"]), int(r["diverse"])
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # rows partition the corpus
    assert sum(v[0] for v in have.values()) == len(docs)


# ------------------------------------------------------------------- q227

def test_boilerplate_ngrams_match_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import (
        BOILER_GRAM, BOILER_MIN_SOURCES, BOILER_TOPK,
    )

    got = QUERIES["q227_boilerplate_ngrams"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    tok = re.compile(r"[a-z]+")
    per_gram: dict[str, tuple[set, set]] = {}
    for _, r in docs.iterrows():
        toks = tok.findall(r["text"].lower())
        for i in range(len(toks) - BOILER_GRAM + 1):
            g = " ".join(toks[i:i + BOILER_GRAM])
            s, d = per_gram.setdefault(g, (set(), set()))
            s.add(r["source"])
            d.add(r["doc_id"])
    rows = [
        (g, len(s), len(d))
        for g, (s, d) in per_gram.items()
        if len(s) >= BOILER_MIN_SOURCES
    ]
    want = sorted(rows, key=lambda x: (-x[1], -x[2], x[0]))[:BOILER_TOPK]
    have = [
        (r["gram"], int(r["n_sources"]), int(r["n_docs"]))
        for _, r in got.iterrows()
    ]
    assert have == want
    assert all(ns >= BOILER_MIN_SOURCES for _, ns, _ in have)
