"""Round-4 session-4 batch E: chi2 audit, rect union, rolling min halo."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q349

def test_chi2_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q349_chi2_independence"](SF).iloc[0]
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_type", "value"])
    vc = np.round(ev["value"] * 100).astype(np.int64)
    vb = np.select([vc < 2000, vc < 5000, vc < 10000], [0, 1, 2], default=3)
    tab = pd.crosstab(ev["event_type"], vb)
    nn = int(tab.to_numpy().sum())
    chi2 = 0
    for et in tab.index:
        for b in tab.columns:
            o = int(tab.loc[et, b])
            r = int(tab.loc[et].sum())
            c = int(tab[b].sum())
            chi2 += (o * nn - r * c) ** 2 * 1_000_000 // (r * c * nn)
    assert int(got["n_rows"]) == nn
    assert int(got["n_cells"]) == tab.size
    assert int(got["dof"]) == (tab.shape[0] - 1) * (tab.shape[1] - 1)
    assert int(got["chi2_scaled"]) == chi2


# ------------------------------------------------------------------- q350

def test_sweep_area_basics():
    from texrex_ray.pipelines.queries.census_c import _sweep_area

    df = pd.DataFrame({"x0": [0, 5], "x1": [10, 15], "y0": [0, 5],
                       "y1": [10, 15]})
    # two 10x10 squares overlapping in a 5x5 corner
    assert _sweep_area(df) == 100 + 100 - 25
    one = pd.DataFrame({"x0": [3], "x1": [7], "y0": [2], "y1": [9]})
    assert _sweep_area(one) == 4 * 7
    assert _sweep_area(one.iloc[:0]) == 0
    # identical rects: union is one of them
    dup = pd.DataFrame({"x0": [1, 1], "x1": [4, 4], "y0": [1, 1],
                        "y1": [3, 3]})
    assert _sweep_area(dup) == 6


def test_rect_union_matches_strip_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _order_rects

    got = QUERIES["q350_rect_union_area"](SF).iloc[0]
    o = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey"])
    r = _order_rects(o)
    xs = np.unique(np.concatenate([r["x0"], r["x1"]]))
    x0, x1 = r["x0"].to_numpy(), r["x1"].to_numpy()
    y0, y1 = r["y0"].to_numpy(), r["y1"].to_numpy()
    area = 0
    for a, b in zip(xs[:-1], xs[1:]):
        live = (x0 <= a) & (x1 >= b)
        if not live.any():
            continue
        ivs = sorted(zip(y0[live], y1[live]))
        covered, (lo, hi) = 0, ivs[0]
        for l2, h2 in ivs[1:]:
            if l2 > hi:
                covered += hi - lo
                lo, hi = l2, h2
            else:
                hi = max(hi, h2)
        covered += hi - lo
        area += int(covered) * int(b - a)
    assert int(got["n_rects"]) == len(r)
    assert int(got["sum_rect_area"]) == int(((x1 - x0) * (y1 - y0)).sum())
    assert int(got["union_area"]) == area
    # overlap exists: union strictly below the naive sum
    assert int(got["union_area"]) < int(got["sum_rect_area"])


# ------------------------------------------------------------------- q351

def test_windowed_min_matches_pandas(ray_session):
    import ray

    from texrex_ray.ops.window import windowed_min

    rng = np.random.default_rng(11)
    n = 3000
    df = pd.DataFrame(
        {
            "ord": rng.permutation(n).astype(np.int64) * 3,
            "v": rng.integers(-50, 50, n).astype(np.int64),
        }
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = (
        windowed_min(ds, "ord", "v", window=5, out="wm")
        .to_pandas()
        .sort_values("ord")
        .reset_index(drop=True)
    )
    want = df.sort_values("ord").reset_index(drop=True)
    want["wm"] = want["v"].rolling(5, min_periods=1).min().astype(np.int64)
    pd.testing.assert_series_equal(got["wm"], want["wm"], check_names=False)


def test_rolling_min_query_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _ROLL_W

    got = QUERIES["q351_rolling_min"](SF).iloc[0]
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "ts", "value"])
    ev = ev.sort_values(["ts", "event_id"]).reset_index(drop=True)
    vc = np.round(ev["value"] * 100).astype(np.int64)
    wm = vc.rolling(_ROLL_W, min_periods=1).min().astype(np.int64)
    assert int(got["n_rows"]) == len(ev)
    assert int(got["sum_win_min_c"]) == int(wm.sum())
    assert int(got["n_self_min"]) == int((wm == vc).sum())
