"""Round-4 session-5 batch DD: FFD packing, window distinct, RLSA."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q424

def test_ffd_matches_scalar_twin(ray_session):
    import pyarrow.parquet as pq

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_d import _FFD_CAP

    got = QUERIES["q424_ffd_binpack"](SF)
    parts = pq.read_table(f"{SF}/part.parquet",
                          columns=["p_partkey", "p_size"]).to_pandas()
    items = sorted(zip(parts["p_size"].astype(int),
                       parts["p_partkey"].astype(int)),
                   key=lambda t: (-t[0], t[1]))
    bins: list = []
    for sz, _ in items:
        for i in range(len(bins)):
            if bins[i] >= sz:
                bins[i] -= sz
                break
        else:
            bins.append(_FFD_CAP - sz)
    total = sum(sz for sz, _ in items)
    assert got["n_items"].iloc[0] == len(items)
    assert got["total_size"].iloc[0] == total
    assert got["n_bins"].iloc[0] == len(bins)
    assert got["lower_bound"].iloc[0] == -(-total // _FFD_CAP)
    # FFD guarantee: within 11/9 OPT + 1 of the ceil bound
    assert got["n_bins"].iloc[0] <= (11 * got["lower_bound"].iloc[0]) // 9 + 1


def test_ffd_known_packing():
    """Closed-form packing: sizes [60,60,40,40] into cap 100 -> FFD
    gives 2 bins (60+40 twice); sizes [70,60,50] -> 3 bins."""
    def ffd(sizes, cap):
        bins = []
        for sz in sorted(sizes, reverse=True):
            for i in range(len(bins)):
                if bins[i] >= sz:
                    bins[i] -= sz
                    break
            else:
                bins.append(cap - sz)
        return len(bins)

    assert ffd([60, 60, 40, 40], 100) == 2
    assert ffd([70, 60, 50], 100) == 3


# ------------------------------------------------------------------- q425

def test_window_distinct_matches_brute_force(ray_session):
    import pyarrow.parquet as pq

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q425_window_distinct"](SF)
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ts = ev["ts"].astype("int64").to_numpy()
    users = ev["user_id"].to_numpy()
    HOUR = 3_600_000_000
    best, best_start = 0, None
    for t0 in sorted(set(ts.tolist())):
        mask = (ts >= t0) & (ts < t0 + HOUR)
        c = len(set(users[mask].tolist()))
        if c > best:
            best, best_start = c, t0
    assert got["max_distinct"].iloc[0] == best
    assert got["best_start_us"].iloc[0] == best_start
    assert got["n_events"].iloc[0] == len(ev)


def test_window_distinct_synthetic(ray_session):
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from texrex_ray.pipelines.queries import QUERIES

    # three users burst within one window; a lone user elsewhere
    base = 1_700_000_000_000_000
    HOUR = 3_600_000_000
    rows = [(base, 1), (base + HOUR // 2, 2), (base + HOUR - 1, 3),
            (base + 3 * HOUR, 9)]
    df = pd.DataFrame(rows, columns=["ts_us", "user_id"])
    # match the real tables' timestamp[us] physical type — a ns column
    # would make the query's int64 view count nanoseconds
    df["ts"] = pd.to_datetime(df["ts_us"], unit="us").astype(
        "datetime64[us]")
    with tempfile.TemporaryDirectory() as td:
        pq.write_table(pa.Table.from_pandas(
            df[["ts", "user_id"]], preserve_index=False),
            os.path.join(td, "events.parquet"))
        got = QUERIES["q425_window_distinct"](td)
    assert got["max_distinct"].iloc[0] == 3
    assert got["best_start_us"].iloc[0] == base


# ------------------------------------------------------------------- q426

def test_rlsa_gap_rules():
    from texrex_ray.stages.images import RlsaLayout

    rl = RlsaLayout()
    # dashed line, gaps of 2: all gaps fill, runs collapse to one
    img = np.zeros((9, 30, 3), np.uint8)
    img[4, 0:30:3] = 255
    n_fg, filled, rb, ra = rl._census(img)
    assert (n_fg, filled, rb, ra) == (10, 18, 10, 1)
    # gap of 5 > S: not filled
    img = np.zeros((9, 20, 3), np.uint8)
    img[4, 2:5] = 255
    img[4, 10:13] = 255
    assert rl._census(img)[1] == 0
    # gap of exactly S=4: filled
    img = np.zeros((9, 20, 3), np.uint8)
    img[4, 2:5] = 255
    img[4, 9:12] = 255
    n_fg, filled, rb, ra = rl._census(img)
    assert (filled, ra) == (4, 1)
    # smearing is horizontal only: vertical gaps never fill
    img = np.zeros((20, 9, 3), np.uint8)
    img[2:5, 4] = 255
    img[9:12, 4] = 255
    assert rl._census(img)[1] == 0


def test_rlsa_matches_scalar_twin():
    import os

    import pyarrow.parquet as pq

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import RlsaLayout, SkeletonCensus

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes"]).to_pandas()
    rl = RlsaLayout()
    S = rl.S
    for raw in imgs["bytes"][:3]:
        px = decode_image(raw)
        lum = px.astype(np.int64).sum(axis=2)
        h, w = lum.shape
        t = SkeletonCensus._otsu(lum)
        fg = lum > t
        if int(fg.sum()) * 2 > h * w:
            fg = ~fg
        filled = rb = ra = 0
        for y in range(h):
            r = fg[y].tolist()
            sm = list(r)
            x = 0
            prev_end = None
            while x < w:
                if r[x]:
                    if prev_end is not None and 0 < x - prev_end <= S:
                        for g in range(prev_end, x):
                            sm[g] = True
                        filled += x - prev_end
                    while x < w and r[x]:
                        x += 1
                    prev_end = x
                else:
                    x += 1
            in_run = False
            for v in r:
                if v and not in_run:
                    rb += 1
                in_run = v
            in_run = False
            for v in sm:
                if v and not in_run:
                    ra += 1
                in_run = v
        assert rl._census(px) == (int(fg.sum()), filled, rb, ra)
