"""Round-4 session-4 batch O: FK integrity, M4 downsample, bit planes."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q379

def test_fk_integrity_all_clean_and_counts(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q379_fk_integrity"](SF)
    assert len(got) == 7
    # the synthetic star schema is referentially clean
    assert (got["n_orphans"] == 0).all()
    li = len(pd.read_parquet(f"{SF}/lineitem.parquet",
                             columns=["l_orderkey"]))
    assert (got.loc[got["fk"].str.startswith("lineitem"), "n_rows"]
            == li).all()


def test_fk_integrity_detects_orphans(ray_session, tmp_path):
    import shutil

    from texrex_ray.pipelines.queries import QUERIES

    # clone sf0.001 and break one FK: drop half the suppliers
    d = tmp_path / "sf"
    d.mkdir()
    for t in ("lineitem", "orders", "customer", "nation", "region",
              "part", "supplier"):
        shutil.copy(f"{SF}/{t}.parquet", d / f"{t}.parquet")
    sup = pd.read_parquet(d / "supplier.parquet")
    sup[sup["s_suppkey"] < sup["s_suppkey"].median()].to_parquet(
        d / "supplier.parquet")
    got = QUERIES["q379_fk_integrity"](str(d))
    bad = got.loc[got["fk"] == "lineitem.suppkey", "n_orphans"].iloc[0]
    assert bad > 0


# ------------------------------------------------------------------- q380

def test_m4_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _M4_CELLS

    got = QUERIES["q380_m4_downsample"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["ts", "event_id", "value"])
    us = ev["ts"].astype("datetime64[us]").astype(np.int64)
    lo, hi = int(us.min()), int(us.max())
    cell = (us - lo) * _M4_CELLS // (hi - lo + 1)
    v = np.round(ev["value"] * 100).astype(np.int64)
    key = (us - lo) * 2_097_152 + ev["event_id"]
    df = pd.DataFrame({"cell": cell, "key": key, "v": v})
    rows = []
    for c, g in df.groupby("cell"):
        rows.append(
            (int(c), len(g), int(g["v"].min()), int(g["v"].max()),
             int(g.loc[g["key"].idxmin(), "v"]),
             int(g.loc[g["key"].idxmax(), "v"]))
        )
    want = pd.DataFrame(
        rows, columns=["cell", "n", "v_min", "v_max", "v_first", "v_last"]
    ).astype("int64")
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # M4 invariant: first/last bounded by min/max
    assert (want["v_min"] <= want["v_first"]).all()
    assert (want["v_first"] <= want["v_max"]).all()


# ------------------------------------------------------------------- q381

def test_bitplane_counts_match_loop(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q381_bitplane_complexity"](SF)
    assert len(got) == 24  # 3 fmts x 8 planes
    # every fmt has structure in SOME plane (and counts are sane)
    for fmt, sub in got.groupby("fmt"):
        s = sub.sort_values("plane")["sum_transitions"].to_numpy()
        assert s.sum() > 0
        assert (s >= 0).all()


def test_bitplane_single_image_exact():
    import numpy as np

    b = np.array([[3, 2], [1, 0]], np.int64)  # bits: 11 10 / 01 00
    for k, want in ((0, 2), (1, 2)):
        p = (b >> k) & 1
        t = int((p[:, 1:] != p[:, :-1]).sum()) + int(
            (p[1:, :] != p[:-1, :]).sum())
        assert t == want
