"""Round-4 session-4 batch H: median filter, Q21 waiting, MMR selection."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q358

def test_median9_network_matches_np_median():
    from texrex_ray.stages.images import median9

    rng = np.random.default_rng(21)
    for _ in range(50):
        planes = [rng.integers(0, 766, (4, 6)).astype(np.int64)
                  for _ in range(9)]
        want = np.median(np.stack(planes), axis=0).astype(np.int64)
        assert (median9(planes) == want).all()


def test_median_filter_stage_edge_cases():
    from texrex_ray.stages.images import MedianFilter

    st = MedianFilter.__new__(MedianFilter)
    tiny = np.zeros((2, 2, 3), np.uint8)
    assert st._stats(tiny) == (0, 0, 0)
    flat = np.full((5, 5, 3), 100, np.uint8)
    ni, sa, nc = st._stats(flat)
    assert (ni, sa, nc) == (9, 0, 0)  # constant image: median == value
    # single bright interior pixel is erased by the median
    spot = np.zeros((3, 3, 3), np.uint8)
    spot[1, 1] = 255
    ni, sa, nc = st._stats(spot)
    assert ni == 1 and sa == 765 and nc == 1


def test_median_filter_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q358_median_filter"](SF)
    assert int(got["n_images"].sum()) == 300
    assert (got["n_changed"] <= got["n_interior"]).all()
    assert (got["sum_abs_change"] > 0).all()


# ------------------------------------------------------------------- q359

def test_waiting_orders_matches_pandas(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q359_waiting_orders"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    counts: dict[int, int] = {}
    for _, g in li.groupby("l_orderkey"):
        if g["l_suppkey"].nunique() < 2:
            continue
        mx = g["l_shipdate"].max()
        at = g.loc[g["l_shipdate"] == mx, "l_suppkey"]
        if at.nunique() == 1:
            s = int(at.iloc[0])
            counts[s] = counts.get(s, 0) + len(at)
    want = (
        pd.DataFrame(sorted(counts.items()),
                     columns=["s_suppkey", "numwait"])
        .sort_values(["numwait", "s_suppkey"], ascending=[False, True])
        .head(20)
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


# ------------------------------------------------------------------- q360

def test_mmr_matches_serial_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _MMR_K, _embed_int

    got = QUERIES["q360_mmr_selection"](SF)
    t = pd.read_parquet(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(np.int64)
    E = np.stack([_embed_int(e) for e in t["embedding"]])
    S = E.sum(axis=0)
    n = len(ids)
    rel = E @ S
    chosen, scores = [], []
    mask = np.ones(n, bool)
    maxsim = None
    for _ in range(_MMR_K):
        pen = maxsim * n if maxsim is not None else np.zeros(n, np.int64)
        score = 7 * rel - 3 * pen
        score_m = np.where(mask, score, -(1 << 62))
        i = np.lexsort((ids, -score_m))[0]
        chosen.append(int(ids[i]))
        scores.append(int(score_m[i]))
        mask[i] = False
        sim = E @ E[i]
        maxsim = sim if maxsim is None else np.maximum(maxsim, sim)
    assert got["vec_id"].tolist() == chosen
    assert got["score"].tolist() == scores
    # diversity: the greedy set has no repeats
    assert len(set(chosen)) == _MMR_K
