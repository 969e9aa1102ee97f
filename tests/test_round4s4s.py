"""Round-4 session-5 batch S: PCA power iteration, DTW pairs, s-stemmer."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q391

def test_pca_power_matches_scalar_twin_and_numpy(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_d import pca_power_twin

    got = QUERIES["q391_pca_power"](SF)

    emb = pd.read_parquet(f"{SF}/embeddings.parquet", columns=["embedding"])
    vecs = [[int(round(float(x) * 1000.0)) for x in v]
            for v in emb["embedding"]]
    lam_ppm, loadings = pca_power_twin(vecs)
    assert got["lam_ppm"].iloc[0] == lam_ppm
    assert got["loading_ppm"].tolist() == loadings
    assert got["dim"].tolist() == list(range(len(loadings)))

    # independent float check: the integer iteration converged to the
    # dominant eigenvector of the n^2-scaled covariance numerator
    X = np.array(vecs, dtype=np.float64)
    n = len(X)
    C = n * (X.T @ X) - np.outer(X.sum(0), X.sum(0))
    w, V = np.linalg.eigh(C)
    top = V[:, np.argmax(w)]
    v = np.array(loadings, dtype=np.float64)
    cos = abs(v @ top) / (np.linalg.norm(v) * np.linalg.norm(top))
    assert cos > 0.999
    # Rayleigh quotient of the returned vector is within the spectrum
    assert lam_ppm / 1e6 <= w.max() * (1 + 1e-9)
    assert lam_ppm / 1e6 >= w.max() * 0.999


# ------------------------------------------------------------------- q392

def _series(sf):
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["ts", "event_type"])
    day = (ev["ts"].astype("int64") // 86_400_000_000).astype(np.int64)
    counts = (
        pd.DataFrame({"day": day, "event_type": ev["event_type"]})
        .groupby(["day", "event_type"]).size().reset_index(name="cnt")
    )
    days = np.arange(counts["day"].min(), counts["day"].max() + 1)
    out = {}
    for t in sorted(counts["event_type"].unique()):
        sub = counts[counts["event_type"] == t].set_index("day")["cnt"]
        grid = sub.reindex(days, fill_value=0).to_numpy(np.int64)
        out[t] = grid * 1000 // max(int(grid.sum()), 1)
    return out, len(days)


def test_dtw_pairs_matches_recursive_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_d import _DTW_BAND, dtw_band_twin

    got = QUERIES["q392_dtw_pairs"](SF)
    series, n_days = _series(SF)
    types = sorted(series)
    want = {}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            want[(ta, tb)] = dtw_band_twin(
                tuple(int(x) for x in series[ta]),
                tuple(int(x) for x in series[tb]), _DTW_BAND)
    assert len(got) == len(want)
    for r in got.itertuples():
        assert int(r.dtw_cost) == want[(r.type_a, r.type_b)]
        assert int(r.n_days) == n_days


def test_dtw_self_zero_and_band_monotone():
    from texrex_ray.pipelines.queries.census_d import _dtw_iter, dtw_band_twin

    rng = np.random.RandomState(7)
    a = rng.randint(0, 50, 20).astype(np.int64)
    b = rng.randint(0, 50, 20).astype(np.int64)
    assert _dtw_iter(a, a, 3) == 0
    # symmetric cost, iterative == recursive twin
    assert _dtw_iter(a, b, 3) == _dtw_iter(b, a, 3)
    assert _dtw_iter(a, b, 3) == dtw_band_twin(tuple(a), tuple(b), 3)
    # a wider band can only help (more warp paths admissible)
    assert _dtw_iter(a, b, 8) <= _dtw_iter(a, b, 3)
    # band 0 degenerates to the L1 distance of aligned points
    assert _dtw_iter(a, b, 0) == int(np.abs(a - b).sum())


# ------------------------------------------------------------------- q393

def _stem_one(t: str) -> str:
    if t.endswith("ies") and not t.endswith(("eies", "aies")):
        return t[:-3] + "y"
    if t.endswith("es") and not t.endswith(("aes", "ees", "oes")):
        return t[:-1]
    if t.endswith("s") and not t.endswith(("us", "ss")):
        return t[:-1]
    return t


def test_sstem_census_matches_set_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q393_sstem_census"](SF)

    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["source", "text"])
    rows = []
    for src, sub in docs.groupby("source"):
        toks = set()
        for txt in sub["text"]:
            toks.update(w.lower() for w in str(txt).split(" ") if w)
        stems = {_stem_one(t) for t in toks}
        rows.append((src, len(toks), len(stems),
                     (len(toks) - len(stems)) * 1_000_000 // len(toks)))
    want = pd.DataFrame(
        rows, columns=["source", "n_tokens", "n_stems", "compress_ppm"]
    ).sort_values("source").reset_index(drop=True).astype(
        {"n_tokens": "int64", "n_stems": "int64", "compress_ppm": "int64"})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    assert (got["n_stems"] <= got["n_tokens"]).all()


def test_sstem_rules():
    from texrex_ray.pipelines.queries.census_d import s_stem

    cases = {
        "ponies": "pony", "cats": "cat", "boxes": "boxe", "goes": "goe",
        "miss": "miss", "bus": "bus", "trees": "tree", "aes": "ae",
        "flies": "fly", "dog": "dog", "eies": "eie",
    }
    got = s_stem(pd.Series(list(cases))).tolist()
    assert got == [cases[k] for k in cases]
