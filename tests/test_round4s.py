"""Round-4 batch S: layout ROI, exposure audit, grouped Pearson."""

import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q219

def test_layout_roi_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import LAYOUT_FRAG, LAYOUT_PROBES

    got = QUERIES["q219_layout_roi"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")

    def zones(df):
        out = []
        for f in range(0, len(df), LAYOUT_FRAG):
            sub = df.iloc[f:f + LAYOUT_FRAG]["n_chars"]
            out.append((int(sub.min()), int(sub.max())))
        return out

    nat = zones(docs.sort_values("doc_id").reset_index(drop=True))
    srt = zones(
        docs.sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
    )
    want = {
        p: (
            sum(1 for mn, mx in nat if mn <= p <= mx),
            sum(1 for mn, mx in srt if mn <= p <= mx),
        )
        for p in LAYOUT_PROBES
    }
    have = {
        int(r["probe"]): (int(r["frags_natural"]), int(r["frags_sorted"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # a sorted layout prunes at least as well on every probe (values in
    # range scan <= consecutive-rank fragments, never more than natural)
    assert sum(v[1] for v in have.values()) <= sum(v[0] for v in have.values())


# ------------------------------------------------------------------- q220

def test_exposure_audit_black_white(ray_session):
    from texrex_ray.sources.images import encode_image
    from texrex_ray.stages.images import ExposureAudit

    black = np.zeros((8, 8, 3), dtype=np.uint8)
    white = np.full((8, 8, 3), 255, dtype=np.uint8)
    batch = pa.table(
        {
            "image_id": ["b", "w"],
            "bytes": [encode_image(black, "png"), encode_image(white, "png")],
        }
    )
    out = ExposureAudit()(batch).to_pandas().set_index("image_id")
    assert out.loc["b", "p50"] == 0 and out.loc["b", "n_dark"] == 64
    # BT.601 weights sum to exactly 1000, so pure white stays 255
    assert out.loc["w", "p50"] == 255 and out.loc["w", "n_bright"] == 64


def test_exposure_fixture_fresh(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q220_exposure_audit"](SF)
    fix = (
        pd.read_parquet(
            "/root/repo/tests/fixtures/oracle/exposure_audit_n300_s42.parquet"
        )
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    assert got.equals(fix)
    # quantiles are ordered per image
    assert (got["p05"] <= got["p50"]).all()
    assert (got["p50"] <= got["p95"]).all()


# ------------------------------------------------------------------- q221

def test_grouped_pearson_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q221_grouped_pearson"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    tok = re.compile(r"[a-z]+")
    want = {}
    for lang, sub in docs.groupby("lang"):
        x = sub["n_chars"].astype(int).tolist()
        y = [len(tok.findall(t.lower())) for t in sub["text"]]
        n = len(x)
        sx, sy = sum(x), sum(y)
        sxx = sum(v * v for v in x)
        syy = sum(v * v for v in y)
        sxy = sum(a * b for a, b in zip(x, y))
        cov = n * sxy - sx * sy
        varx, vary = n * sxx - sx * sx, n * syy - sy * sy
        r2 = cov * cov * PPM // (varx * vary)
        val = math.isqrt(r2 * PPM)
        want[lang] = (n, -val if cov < 0 else val)
    have = {
        r["lang"]: (int(r["n"]), int(r["pearson_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # n_chars and token count are strongly positively correlated
    for _, r_ppm in have.values():
        assert 500_000 < r_ppm <= PPM


def test_pearson_sign_and_extremes():
    from texrex_ray.pipelines.queries.analytics_a import PPM

    def r_ppm(xs, ys):
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        cov = n * sxy - sx * sy
        varx, vary = n * sxx - sx * sx, n * syy - sy * sy
        r2 = cov * cov * PPM // (varx * vary)
        v = math.isqrt(r2 * PPM)
        return -v if cov < 0 else v

    assert r_ppm([1, 2, 3], [10, 20, 30]) == PPM
    assert r_ppm([1, 2, 3], [30, 20, 10]) == -PPM
    assert abs(r_ppm([1, 2, 3, 4], [1, -1, 1, -1])) < 600_000
