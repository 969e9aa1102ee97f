"""Round-4 batch I: Threshold-Algorithm top-k, Benford audit, CUBE."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q189

def test_ta_topk_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import TA_EVENT_WEIGHT, TA_K

    got = QUERIES["q189_ta_topk"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    vc = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    u = (
        pd.DataFrame({"user_id": ev["user_id"], "vc": vc})
        .groupby("user_id")["vc"]
        .agg(["sum", "size"])
        .reset_index()
        .rename(columns={"sum": "v_c", "size": "n"})
    )
    u["score"] = u["v_c"] + TA_EVENT_WEIGHT * u["n"]
    want = u.sort_values(["score", "user_id"], ascending=[False, True]).head(
        TA_K
    )
    assert list(got["user_id"]) == list(want["user_id"])
    assert list(got["score"]) == list(want["score"])
    assert list(got["v_c"]) == list(want["v_c"])
    assert list(got["n"]) == list(want["n"])


def test_ta_threshold_certifies(ray_session):
    """The TA stop bound: every returned score must be >= the combined
    score of ANY user outside the result (global correctness of the
    early-stopped scan, checked against the full population)."""
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import TA_EVENT_WEIGHT

    got = QUERIES["q189_ta_topk"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    vc = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    u = (
        pd.DataFrame({"user_id": ev["user_id"], "vc": vc})
        .groupby("user_id")["vc"]
        .agg(["sum", "size"])
    )
    scores = u["sum"] + TA_EVENT_WEIGHT * u["size"]
    outside = scores[~scores.index.isin(got["user_id"])]
    assert got["score"].min() >= outside.max()


# ------------------------------------------------------------------- q190

def test_benford_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import _BENFORD_PPM, PPM

    got = QUERIES["q190_benford"](SF)
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    v = orders["o_totalprice"].to_numpy()
    first = (
        pd.Series(np.floor(v[v >= 1]).astype(np.int64)).astype(str).str[0]
        .astype(int)
    )
    cnt = first.value_counts()
    total = int(cnt.sum())
    assert list(got["digit"]) == list(range(1, 10))
    for _, r in got.iterrows():
        d = int(r["digit"])
        n = int(cnt.get(d, 0))
        assert int(r["n"]) == n
        assert int(r["obs_ppm"]) == n * PPM // total
        assert int(r["benford_ppm"]) == _BENFORD_PPM[d]
        assert int(r["dev_ppm"]) == abs(n * PPM // total - _BENFORD_PPM[d])
    # shares sum to ~1 (floor leakage < 9 ppm)
    assert PPM - 9 <= got["obs_ppm"].sum() <= PPM


# ------------------------------------------------------------------- q191

def test_cube_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.corpus_ops import _ALL

    got = QUERIES["q191_cube"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for cols in (["source", "lang"], ["source"], ["lang"], []):
        if cols:
            g = docs.groupby(cols)["n_chars"].agg(["size", "sum"]).reset_index()
        else:
            g = pd.DataFrame(
                {"size": [len(docs)], "sum": [int(docs["n_chars"].sum())]}
            )
        for _, r in g.iterrows():
            key = (r.get("source", _ALL), r.get("lang", _ALL))
            want[key] = (int(r["size"]), int(r["sum"]))
    have = {
        (r["source"], r["lang"]): (int(r["n_docs"]), int(r["sum_chars"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the CUBE lattice strictly contains the ROLLUP one
    rollup = QUERIES["q105_rollup"](SF)
    rkeys = {(r["source"], r["lang"]) for _, r in rollup.iterrows()}
    assert rkeys < set(have)
