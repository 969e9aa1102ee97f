"""Round-4 session-4 batch J: downsample loss, tile variance, hist EMD."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q364

def test_downsample_loss_slicing_vs_reshape():
    from texrex_ray.stages.images import DownsampleLoss

    st = DownsampleLoss.__new__(DownsampleLoss)
    rng = np.random.default_rng(31)
    for _ in range(10):
        h, w = rng.integers(1, 17, 2)
        px = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        n_px, sse = st._loss(px)
        lum = px.astype(np.int64).sum(axis=2)
        he, we = h - h % 2, w - w % 2
        if he == 0 or we == 0:
            assert (n_px, sse) == (0, 0)
            continue
        a = lum[:he, :we]
        small = a.reshape(he // 2, 2, we // 2, 2).sum(axis=(1, 3)) // 4
        up = np.kron(small, np.ones((2, 2), np.int64))
        want = int(((a - up) ** 2).sum())
        assert n_px == a.size and sse == want


def test_downsample_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q364_downsample_loss"](SF)
    assert int(got["n_images"].sum()) == 300
    assert (got["sse_down"] > 0).all()


# ------------------------------------------------------------------- q365

def test_tile_variance_matches_loop():
    from texrex_ray.stages.images import TileVariance

    st = TileVariance.__new__(TileVariance)
    st.tile, st.thresh, st.busy = 4, 400, 8000
    rng = np.random.default_rng(5)
    for _ in range(8):
        h, w = rng.integers(3, 20, 2)
        px = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        nt, nf, nb = st._stats(px)
        lum = px.astype(np.int64).sum(axis=2)
        t = 4
        wnt = wnf = wnb = 0
        for y in range(0, h - t + 1, t):
            for x in range(0, w - t + 1, t):
                blk = lum[y:y + t, x:x + t]
                n = t * t
                num = n * int((blk * blk).sum()) - int(blk.sum()) ** 2
                wnt += 1
                wnf += num <= 400 * n * n
                wnb += num > 8000 * n * n
        assert (nt, nf, nb) == (wnt, wnf, wnb)
    flat = np.full((8, 8, 3), 99, np.uint8)
    st.tile = 8
    assert st._stats(flat) == (1, 1, 0)


def test_tile_variance_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q365_tile_variance"](SF)
    assert int(got["n_images"].sum()) == 300
    assert (got["n_flat"] + got["n_busy"] <= 2 * got["n_tiles"]).all()
    assert (got["n_flat"] > 0).all()


# ------------------------------------------------------------------- q366

def test_emd_scaled_properties():
    from texrex_ray.pipelines.queries.census_c import emd_scaled

    h = np.array([3, 0, 5, 2], np.int64)
    assert emd_scaled(h, h * 7) == 0  # same shape, any mass: zero EMD
    a = np.array([4, 0, 0, 0], np.int64)
    b = np.array([0, 0, 0, 4], np.int64)
    # all mass moves 3 bins: EMD = 3 * 4 px = 12
    assert emd_scaled(a, b) == 12
    # triangle-ish: moving to an intermediate bin costs less
    c = np.array([0, 4, 0, 0], np.int64)
    assert emd_scaled(a, c) < emd_scaled(a, b)


def test_hist_emd_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _HEMD_BINS, _lum_hist, emd_scaled
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    got = QUERIES["q366_hist_match_emd"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet", columns=["bytes", "fmt"])
    hists = [(f, _lum_hist(decode_image(r)))
             for r, f in zip(imgs["bytes"], imgs["fmt"])]
    protos: dict[str, np.ndarray] = {}
    for f, h in hists:
        protos[f] = protos.get(f, np.zeros(_HEMD_BINS, np.int64)) + h
    rows = {}
    for f, h in hists:
        e = emd_scaled(h, protos[f])
        n, s, m = rows.get(f, (0, 0, 0))
        rows[f] = (n + 1, s + e, max(m, e))
    want = (
        pd.DataFrame(
            [(f, *v) for f, v in rows.items()],
            columns=["fmt", "n_images", "sum_emd_scaled", "max_emd_scaled"],
        )
        .sort_values("fmt")
        .reset_index(drop=True)
        .astype({c: "int64" for c in
                 ("n_images", "sum_emd_scaled", "max_emd_scaled")})
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
