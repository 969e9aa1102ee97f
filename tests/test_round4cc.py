"""Round-4 batch CC: state sizing, A/A chi-square, channel stats."""

import hashlib
import re

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
EDGES = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------------------------- q249

def test_state_sizing_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q249_state_sizing"](SF)
    edges = pd.read_parquet(EDGES)
    per = {}
    for u in set(edges["dst"]):
        per[u.split("/")[2]] = per.get(u.split("/")[2], 0) + 1
    want = {
        h: (n, (n * 9585 + 7999) // 8000, ((n * 20 + 18) // 19) * 2)
        for h, n in per.items()
    }
    have = {
        r["host"]: (int(r["n_urls"]), int(r["bloom_bytes"]),
                    int(r["cuckoo_bytes"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # sanity of the sizing model: ~1.2 bytes/key bloom, ~2.1 cuckoo
    for h, (n, bb, cb) in have.items():
        assert n <= bb <= n * 2 and 2 * n <= cb <= 3 * n + 2


# ------------------------------------------------------------------- q250

def test_aa_drift_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.census_a import CHI_BIN_W, CHI_BINS

    got = QUERIES["q250_aa_drift_calibration"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for src, sub in docs.groupby("source"):
        counts = {}
        for _, r in sub.iterrows():
            half = int.from_bytes(
                hashlib.md5(str(r["doc_id"]).encode()).digest()[8:],
                "little",
            ) % 2
            b = min(len(TOK.findall(r["text"].lower())) // CHI_BIN_W,
                    CHI_BINS - 1)
            counts.setdefault(b, [0, 0])[half] += 1
        na = sum(v[0] for v in counts.values())
        nb = sum(v[1] for v in counts.values())
        chi = sum(
            (a * nb - b * na) ** 2 * PPM // (na * nb * (a + b))
            for a, b in counts.values()
        )
        want[src] = (len(counts), chi)
    have = {
        r["source"]: (int(r["n_bins"]), int(r["chi2_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want


# ------------------------------------------------------------------- q251

def test_channel_stats_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q251_channel_stats"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/channel_stats_n300_s42.parquet"
    )
    agg = fx.groupby("fmt").sum(numeric_only=True)
    for _, r in got.iterrows():
        w = agg.loc[r["fmt"]]
        for c in ("n_px", "sum_r", "sum_g", "sum_b", "sq_r", "sq_g",
                  "sq_b"):
            assert int(r[c]) == int(w[c]), (r["fmt"], c)
        assert int(r["mean_r_milli"]) == int(w["sum_r"]) * 1000 // int(
            w["n_px"]
        )
    # variance identity: E[x^2] >= E[x]^2 per channel (integer check at
    # milli scale)
    for _, r in got.iterrows():
        n = int(r["n_px"])
        for ch in ("r", "g", "b"):
            assert int(r[f"sq_{ch}"]) * n >= int(r[f"sum_{ch}"]) ** 2


def test_channel_stats_fixture_fresh(ray_session):
    """The committed fixture matches a live serial decode of the first
    few images (guards against fixture staleness after codec edits)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/channel_stats_n300_s42.parquet"
    ).set_index("image_id")
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet").head(5)
    for _, r in imgs.iterrows():
        px = decode_image(bytes(r["bytes"])).astype(np.int64)
        w = fx.loc[r["image_id"]]
        assert int(px[:, :, 0].sum()) == int(w["sum_r"])
        assert int((px[:, :, 2] ** 2).sum()) == int(w["sq_b"])
        assert px.shape[0] * px.shape[1] == int(w["n_px"])
