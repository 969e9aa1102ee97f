"""Round-4 session-4 batch D: convex hull, priority sampling, butterflies."""

import hashlib
from itertools import combinations

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q346

def test_hull_twins_agree_on_random_points():
    from texrex_ray.stages.images import (hull_area2, jarvis_march,
                                          monotone_chain)

    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        pts = [(int(x), int(y)) for x, y in rng.integers(0, 15, (n, 2))]
        h1, h2 = monotone_chain(pts), jarvis_march(pts)
        assert hull_area2(h1) == hull_area2(h2)
        assert len(h1) == len(h2)
        assert set(h1) == set(h2)


def test_hull_row_extreme_reduction_is_lossless():
    from texrex_ray.stages.images import ConvexHullStats, hull_area2, \
        monotone_chain

    rng = np.random.default_rng(3)
    stage = ConvexHullStats.__new__(ConvexHullStats)
    stage.thresh = 383
    for _ in range(8):
        h, w = rng.integers(4, 20, 2)
        px = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        n_fg, verts, area2 = stage._stats(px)
        lum = px.astype(np.int64).sum(axis=2)
        ys, xs = np.nonzero(lum >= 383)
        if len(ys) == 0:
            assert (n_fg, verts, area2) == (0, 0, 0)
            continue
        # hull over ALL foreground pixels, not just row extremes
        full = monotone_chain([(int(x), int(y)) for x, y in zip(xs, ys)])
        assert n_fg == len(ys)
        assert verts == len(full)
        assert area2 == hull_area2(full)


def test_convex_hull_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q346_convex_hull"](SF)
    assert list(got.columns) == ["fmt", "n_images", "n_fg",
                                 "sum_hull_area2", "sum_hull_verts"]
    assert int(got["n_images"].sum()) == 300
    assert (got["sum_hull_area2"] > 0).all()


# ------------------------------------------------------------------- q347

def test_priority_sampling_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _PS_K, _PS_SCALE

    got = QUERIES["q347_priority_sampling"](SF).iloc[0]
    o = pd.read_parquet(f"{SF}/orders.parquet")
    w = np.round(o["o_totalprice"].to_numpy() * 100).astype(np.int64)
    in_s = (o["o_orderpriority"] == "1-URGENT").to_numpy()
    cand = []
    for okey, wc, fl in zip(o["o_orderkey"], w, in_s):
        h = int.from_bytes(
            hashlib.md5(str(int(okey)).encode()).digest()[8:], "little"
        ) or 1
        cand.append((int(wc) * _PS_SCALE // h, int(okey), int(wc), bool(fl)))
    cand.sort(key=lambda t: (-t[0], t[1]))
    top = cand[:_PS_K]
    tau = cand[_PS_K][0] if len(cand) > _PS_K else 0
    est_total = sum(max(wc, tau) for _, _, wc, _ in top)
    est_urgent = sum(max(wc, tau) for _, _, wc, fl in top if fl)
    assert int(got["n_items"]) == len(o)
    assert int(got["tau"]) == tau
    assert int(got["exact_total_c"]) == int(w.sum())
    assert int(got["est_total_c"]) == est_total
    assert int(got["exact_urgent_c"]) == int(w[in_s].sum())
    assert int(got["est_urgent_c"]) == est_urgent
    # k=64 priority sampling should land within ~35% on this skew
    assert int(got["err_total_bp"]) < 3_500


# ------------------------------------------------------------------- q348

def test_butterfly_count_matches_bruteforce(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q348_butterfly_count"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])
    edges = set(zip(li["l_suppkey"], li["l_partkey"]))
    parts: dict[int, set[int]] = {}
    for s, p in edges:
        parts.setdefault(p, set()).add(s)
    n_wedges = sum(len(v) * (len(v) - 1) // 2 for v in parts.values())
    pair_m: dict[tuple[int, int], int] = {}
    for v in parts.values():
        for a, b in combinations(sorted(v), 2):
            pair_m[(a, b)] = pair_m.get((a, b), 0) + 1
    n_bfly = sum(m * (m - 1) // 2 for m in pair_m.values())
    assert int(got["n_left"]) == len({s for s, _ in edges})
    assert int(got["n_right"]) == len(parts)
    assert int(got["n_edges"]) == len(edges)
    assert int(got["n_wedges"]) == n_wedges
    assert int(got["n_butterflies"]) == n_bfly
