"""Round-4 session-5 batch NN: subset sums, tile distinct, lead time."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q454

def test_bitset_shift_matches_python_shift():
    from texrex_ray.pipelines.queries.census_d import _bitset_shift_left

    rng = np.random.RandomState(1)
    nwords = 8
    for _ in range(30):
        mask = rng.randint(0, 2**63, nwords).astype(np.uint64)
        k = int(rng.randint(0, 300))
        as_int = 0
        for i, w in enumerate(mask):
            as_int |= int(w) << (64 * i)
        shifted = (as_int << k) & ((1 << (64 * nwords)) - 1)
        got = _bitset_shift_left(mask, k, nwords)
        got_int = 0
        for i, w in enumerate(got):
            got_int |= int(w) << (64 * i)
        assert got_int == shifted


def test_subset_sums_matches_set_dp(ray_session):
    import pyarrow.parquet as pq

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_d import _SUBSET_CAP, _SUBSET_SIZE_MIN

    got = QUERIES["q454_subset_sums"](SF)
    parts = pq.read_table(f"{SF}/part.parquet",
                          columns=["p_size"]).to_pandas()
    sizes = [int(v) for v in parts["p_size"] if v >= _SUBSET_SIZE_MIN]
    reach = {0}
    for sz in sizes:
        reach |= {v + sz for v in reach if v + sz <= _SUBSET_CAP}
    missing = sorted(set(range(1, _SUBSET_CAP + 1)) - reach)
    assert got["n_items"].iloc[0] == len(sizes)
    assert got["n_reachable"].iloc[0] == len(reach) - 1
    assert got["min_unreachable"].iloc[0] == (missing[0] if missing
                                              else 0)
    assert got["max_reachable"].iloc[0] == max(v for v in reach
                                               if v <= _SUBSET_CAP)


# ------------------------------------------------------------------- q455

def test_tile_distinct_closed_forms():
    from texrex_ray.stages.images import TileDistinct

    td = TileDistinct()
    # flat image: one distinct value per tile
    assert td._census(np.full((16, 16, 3), 50, np.uint8)) == (4, 4, 1)
    # 2-value checkerboard: distinct 2 despite maximal variance
    cb = np.zeros((8, 8, 3), np.uint8)
    cb[::2, 1::2] = 255
    cb[1::2, ::2] = 255
    assert td._census(cb) == (1, 2, 2)
    # 64 unique values: fully distinct
    g = (np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)
    assert td._census(np.stack([g] * 3, axis=2)) == (1, 64, 64)
    # tiny image: no full tile
    assert td._census(np.zeros((4, 4, 3), np.uint8)) == (0, 0, 0)


def test_tile_distinct_matches_set_twin():
    import os

    import pyarrow.parquet as pq

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import TileDistinct

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes"]).to_pandas()
    td = TileDistinct()
    for raw in imgs["bytes"][:4]:
        px = decode_image(raw)
        lum = px.astype(np.int64).sum(axis=2)
        h, w = lum.shape
        th, tw = h // 8, w // 8
        tot = 0
        mx = 0
        for by in range(th):
            for bx in range(tw):
                n = len({int(v) for v in
                         lum[by * 8:by * 8 + 8,
                             bx * 8:bx * 8 + 8].ravel()})
                tot += n
                mx = max(mx, n)
        assert td._census(px) == (th * tw, tot, mx)


# ------------------------------------------------------------------- q456

def test_lead_time_matches_pandas_twin(ray_session):
    import pyarrow.parquet as pq

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q456_lead_time"](SF)
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_shipdate"]).to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey", "o_orderdate"]
                           ).to_pandas()
    df = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
    days = ((df["l_shipdate"].astype("datetime64[us]").astype("int64")
             - df["o_orderdate"].astype("datetime64[us]").astype("int64"))
            // 86_400_000_000)
    assert got["n_lines"].iloc[0] == len(days)
    assert got["min_days"].iloc[0] == int(days.min())
    assert got["max_days"].iloc[0] == int(days.max())
    assert got["sum_days"].iloc[0] == int(days.sum())
    assert got["n_late"].iloc[0] == int((days > 90).sum())
    # NOTE: the synthetic generator does NOT enforce TPC-H's
    # ship-after-order constraint (min_days is negative here), which is
    # exactly what a lead-time audit is for — only parity is asserted.
