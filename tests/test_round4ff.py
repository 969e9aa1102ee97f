"""Round-4 batch FF: winnowing fingerprints, payload integrity."""

import hashlib
import re

import pandas as pd

SF = "/root/testdata/sf0.001"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------------------------- q258

def _winnow_serial(tokens, k, w, hmod):
    grams = [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]
    h = [
        int.from_bytes(hashlib.md5(g.encode()).digest()[8:], "little") % hmod
        for g in grams
    ]
    sel = set()
    for j in range(w - 1, len(h)):
        window = h[j - w + 1:j + 1]
        m = min(window)
        # rightmost occurrence of the min
        pos = j - list(reversed(window)).index(m)
        sel.add(pos)
    return len(grams), len(sel)


def test_winnowing_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.census_a import _WIN_HMOD, WIN_K, WIN_W

    got = QUERIES["q258_winnowing"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for _, r in docs.iterrows():
        toks = TOK.findall(r["text"].lower())
        if len(toks) < WIN_K:
            continue
        n_grams, n_fp = _winnow_serial(toks, WIN_K, WIN_W, _WIN_HMOD)
        want[int(r["doc_id"])] = (n_grams, n_fp, n_fp * PPM // n_grams)
    have = {
        int(r["doc_id"]): (int(r["n_grams"]), int(r["n_fp"]),
                           int(r["density_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # winnowing guarantee: density sits near 2/(w+1) = 0.4, never
    # above 1 or below 1/w
    dens = [v[2] for v in have.values() if v[0] >= 50]
    assert dens, "need long docs to check density"
    avg = sum(dens) / len(dens)
    assert 250_000 < avg < 650_000


def test_winnowing_coverage_guarantee(ray_session):
    """Any window of WIN_W grams contains at least one fingerprint —
    verified directly on one document."""
    from texrex_ray.pipelines.queries.census_a import _WIN_HMOD, WIN_K, WIN_W
    import numpy as np

    docs = pd.read_parquet(f"{SF}/documents.parquet")
    toks = TOK.findall(docs.iloc[0]["text"].lower())
    grams = [
        " ".join(toks[i:i + WIN_K]) for i in range(len(toks) - WIN_K + 1)
    ]
    h = [
        int.from_bytes(hashlib.md5(g.encode()).digest()[8:], "little")
        % _WIN_HMOD
        for g in grams
    ]
    sel = set()
    for j in range(WIN_W - 1, len(h)):
        window = h[j - WIN_W + 1:j + 1]
        pos = j - list(reversed(window)).index(min(window))
        sel.add(pos)
    for j in range(WIN_W - 1, len(h)):
        assert any(p in sel for p in range(j - WIN_W + 1, j + 1))


# ------------------------------------------------------------------- q259

def test_payload_integrity_is_diagonal(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q259_payload_integrity"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    # every row sniffs as its declared format with exact length
    assert (got["declared"] == got["sniffed"]).all()
    assert (got["n_images"] == got["n_len_ok"]).all()
    assert int(got["n_images"].sum()) == len(imgs)


def test_payload_integrity_catches_corruption(ray_session):
    """A corrupted prefix or truncated payload must leave the
    diagonal (direct check of the classification rule)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import MAGIC

    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet").head(2)
    rev = {v: k for k, v in MAGIC.items()}
    good = bytes(imgs.iloc[0]["bytes"])
    assert rev.get(good[:4]) == imgs.iloc[0]["fmt"]
    corrupted = b"XXXX" + good[4:]
    assert rev.get(corrupted[:4], "unknown") == "unknown"
    truncated = good[:-5]
    w, h = int(imgs.iloc[0]["w"]), int(imgs.iloc[0]["h"])
    assert len(truncated) != 12 + w * h * 3
