"""Round-4 batch J: trigram episodes, exponential smoothing, mutual-NN
alignment."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q192

def test_episodes_match_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import EPISODE_SUPPORT

    got = QUERIES["q192_episodes"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    g = ev.groupby("user_id")["event_type"]
    e2, e3 = g.shift(-1), g.shift(-2)
    keep = e3.notna()
    tri = pd.DataFrame(
        {"e1": ev["event_type"][keep], "e2": e2[keep], "e3": e3[keep]}
    )
    want = tri.groupby(["e1", "e2", "e3"]).size()
    want = want[want >= EPISODE_SUPPORT]
    have = {
        (r["e1"], r["e2"], r["e3"]): int(r["n"]) for _, r in got.iterrows()
    }
    assert have == {k: int(v) for k, v in want.items()}
    assert (got["n"] >= EPISODE_SUPPORT).all()


# ------------------------------------------------------------------- q193

def test_exp_smoothing_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q193_exp_smoothing"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    day = ev["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
    cnt = pd.Series(day).value_counts().sort_index()
    days = np.arange(cnt.index.min(), cnt.index.max() + 1)
    n = np.zeros(len(days), dtype=int)
    n[cnt.index.to_numpy() - days[0]] = cnt.to_numpy()
    s = int(n[0])
    want = [s]
    for x in n[1:]:
        s = (int(x) + 3 * s) // 4
        want.append(s)
    assert list(got["day"]) == list(days)
    assert list(got["n"]) == list(n)
    assert list(got["smooth"]) == want
    # the grid is complete (no day gaps)
    assert (np.diff(got["day"].to_numpy()) == 1).all()


def test_exp_smoothing_bounds(ray_session):
    """Smoothed values stay inside the running min/max envelope of the
    series seen so far (convexity of the update, floors only shrink)."""
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q193_exp_smoothing"](SF)
    n = got["n"].to_numpy()
    s = got["smooth"].to_numpy()
    run_max = np.maximum.accumulate(n)
    assert (s <= run_max).all()
    assert (s >= 0).all()


# ------------------------------------------------------------------- q194

def test_mutual_nn_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q194_mutual_nn"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    m = np.stack(emb["embedding"].to_numpy())
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    ids = emb["vec_id"].to_numpy()
    a_idx = np.flatnonzero(ids % 2 == 0)
    b_idx = np.flatnonzero(ids % 2 == 1)
    sims = m[a_idx] @ m[b_idx].T
    ab = {ids[a_idx[i]]: ids[b_idx[np.argmax(sims[i])]] for i in range(len(a_idx))}
    ba = {ids[b_idx[j]]: ids[a_idx[np.argmax(sims[:, j])]] for j in range(len(b_idx))}
    want = sorted(
        (int(a), int(b)) for a, b in ab.items() if ba.get(b) == a
    )
    have = list(got[["id_a", "id_b"]].itertuples(index=False, name=None))
    assert have == want
    # mutual pairs are a 1:1 matching
    assert got["id_a"].is_unique and got["id_b"].is_unique
