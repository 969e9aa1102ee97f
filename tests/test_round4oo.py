"""Round-4 batch OO: Sobel orientation, morphological opening, CUSUM."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q283

def test_sobel_octants_on_synthetic_edges(ray_session):
    from texrex_ray.stages.images import SobelOrientation

    so = SobelOrientation(thresh=160)
    # vertical step edge (dark left, bright right): gx > 0, gy == 0
    # everywhere on the edge -> octant 0 (upper, right, shallow)
    px = np.zeros((6, 6, 3), dtype=np.uint8)
    px[:, 3:, :] = 255
    hist, n = so._hist(px)
    assert n > 0
    assert hist[0] == n and sum(hist) == n
    # horizontal step edge (dark top, bright bottom): gx == 0, gy > 0
    # -> upper half (gy > 0), left == lower == False, steep -> octant 1
    px2 = np.zeros((6, 6, 3), dtype=np.uint8)
    px2[3:, :, :] = 255
    hist2, n2 = so._hist(px2)
    assert n2 > 0
    assert hist2[1] == n2 and sum(hist2) == n2
    # flipping the image flips the gradient sign: bright top -> gy < 0
    # -> lower half, gx == 0 so left=False, lower=True -> 4+2+1 = 7
    px3 = px2[::-1].copy()
    hist3, n3 = so._hist(px3)
    assert n3 == n2 and hist3[7] == n3
    # flat and sub-3x3 images produce nothing
    assert so._hist(np.full((5, 5, 3), 7, np.uint8)) == ([0] * 8, 0)
    assert so._hist(np.zeros((2, 9, 3), np.uint8)) == ([0] * 8, 0)


def test_sobel_stage_matches_pixel_twin(ray_session):
    """The vectorized stage must agree per-image with a fresh scalar
    per-pixel twin (independent of tools/gen_oracle_fixtures.py)."""
    from texrex_ray.stages.images import SobelOrientation

    so = SobelOrientation(thresh=160)
    rng = np.random.default_rng(77)
    px = rng.integers(0, 256, (14, 11, 3)).astype(np.uint8)
    lum = px.astype(int).sum(axis=2)
    want = [0] * 8
    n_want = 0
    for y in range(1, 13):
        for x in range(1, 10):
            gx = (lum[y - 1, x + 1] + 2 * lum[y, x + 1] + lum[y + 1, x + 1]
                  - lum[y - 1, x - 1] - 2 * lum[y, x - 1] - lum[y + 1, x - 1])
            gy = (lum[y + 1, x - 1] + 2 * lum[y + 1, x] + lum[y + 1, x + 1]
                  - lum[y - 1, x - 1] - 2 * lum[y - 1, x] - lum[y - 1, x + 1])
            if abs(gx) + abs(gy) < 160:
                continue
            n_want += 1
            lower = gy < 0 or (gy == 0 and gx < 0)
            o = (4 if lower else 0) + (2 if (gx < 0) != lower else 0) \
                + (1 if abs(gy) > abs(gx) else 0)
            want[o] += 1
    hist, n = so._hist(px)
    assert (hist, n) == (want, n_want)


def test_sobel_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q283_sobel_orientation"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/sobel_fixture.parquet")
    want = {}
    for fmt, s in fx.groupby("fmt"):
        tot = np.vstack([np.asarray(h, dtype=np.int64)
                         for h in s["ori_hist"]]).sum(axis=0)
        for sec in range(8):
            want[(fmt, sec)] = int(tot[sec])
    have = {(r["fmt"], int(r["sector"])): int(r["n_votes"])
            for _, r in got.iterrows()}
    assert have == want
    # every format contributes edge votes somewhere
    assert all(sum(v for (f, _), v in want.items() if f == fmt) > 0
               for fmt in fx["fmt"].unique())


# ------------------------------------------------------------------- q284

def test_morph_opening_removes_speckles_keeps_blocks(ray_session):
    from texrex_ray.stages.images import MorphOpening

    mo = MorphOpening()
    # isolated single-pixel speckle: erosion kills it, opening = empty
    m = np.zeros((7, 7), dtype=bool)
    m[3, 3] = True
    assert mo._dilate(mo._erode(m)).sum() == 0
    # a solid 4x4 block survives opening EXACTLY (opening of a block
    # >= kernel reproduces it)
    m2 = np.zeros((8, 8), dtype=bool)
    m2[2:6, 2:6] = True
    assert (mo._dilate(mo._erode(m2)) == m2).all()
    # border zero-padding: a full 3x5 strip erodes to just its interior
    # row/columns (padding is background, so border pixels die)
    m3 = np.ones((3, 5), dtype=bool)
    er = mo._erode(m3)
    assert er.sum() == 3 and er[1, 1:4].all() and not er[0].any()
    # anti-extensive: opened is a subset of the input mask
    rng = np.random.default_rng(5)
    m4 = rng.random((16, 16)) > 0.5
    op4 = mo._dilate(mo._erode(m4))
    assert not (op4 & ~m4).any()


def test_morph_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q284_morph_opening"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/morph_fixture.parquet")
    want = {
        fmt: (len(s), int(s["fg_px"].sum()), int(s["opened_px"].sum()),
              int(s["speckle_px"].sum()), int(s["speckle_px"].max()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_images"]), int(r["sum_fg"]),
                   int(r["sum_opened"]), int(r["sum_speckle"]),
                   int(r["max_speckle"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # anti-extensivity at the aggregate level: speckle >= 0, opened <= fg
    assert all(v[3] >= 0 and v[2] <= v[1] for v in want.values())


# ------------------------------------------------------------------- q285

def test_cusum_scan_unit(ray_session):
    """Hand-walked CUSUM: series 0,0,12,12,12,0 with k=3, h=15.
    S: 0,0,9,18->alarm reset 0,9,6.  One alarm at index 3."""
    from texrex_ray.pipelines.queries.census_a import CUSUM_H_MULT

    assert CUSUM_H_MULT == 5
    xs = [0, 0, 12, 12, 12, 0]
    k, h = 3, 15
    s = max_s = n_alarms = 0
    first = -1
    for i, x in enumerate(xs):
        s = max(0, s + x - k)
        max_s = max(max_s, s)
        if s > h:
            n_alarms += 1
            if first < 0:
                first = i
            s = 0
    assert (n_alarms, first, max_s) == (1, 3, 18)


def test_cusum_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import CUSUM_H_MULT

    got = QUERIES["q285_cusum_drift"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["ts", "event_type"])
    days = (ev["ts"].astype("int64") // 86_400_000_000).astype(int)
    lo, hi = int(days.min()), int(days.max())
    n_days = hi - lo + 1
    want = {}
    for et in sorted(ev["event_type"].unique()):
        from collections import Counter

        cnt = Counter(days[ev["event_type"] == et])
        total = sum(cnt.values())
        k = total // n_days + 1
        h = CUSUM_H_MULT * k
        s = max_s = n_alarms = 0
        first = -1
        for d in range(lo, hi + 1):
            s = max(0, s + cnt.get(d, 0) - k)
            max_s = max(max_s, s)
            if s > h:
                n_alarms += 1
                if first < 0:
                    first = d
                s = 0
        want[et] = (n_days, k, h, n_alarms, first, max_s)
    have = {
        r["event_type"]: (int(r["n_days"]), int(r["allowance_k"]),
                          int(r["threshold_h"]), int(r["n_alarms"]),
                          int(r["first_alarm_day"]), int(r["max_s"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # alarm bookkeeping invariants: max_s > h iff alarms fired;
    # first_alarm_day set iff alarms fired
    for v in want.values():
        assert (v[3] > 0) == (v[5] > v[2])
        assert (v[3] > 0) == (v[4] >= 0)
