"""Round-4 batch QQ: LZ76 complexity, Hamilton apportionment, box means."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q289

def test_lz76_known_values(ray_session):
    from texrex_ray.functions.complexity import (
        lz76_complexity, lz76_kaspar_schuster,
    )

    # canonical Kaspar-Schuster example
    assert lz76_complexity("0001101001000101") == 6
    assert lz76_complexity("") == 0
    assert lz76_complexity("a") == 1
    assert lz76_complexity("aaaaaaaa") == 2       # a | aaaaaaa
    assert lz76_complexity("ababababab") == 3     # a | b | abababab
    for s in ("", "a", "aaaaaaaa", "ababababab", "0001101001000101"):
        assert lz76_complexity(s) == lz76_kaspar_schuster(s)


def test_lz76_fuzz_two_routes_agree(ray_session):
    import random

    from texrex_ray.functions.complexity import (
        lz76_complexity, lz76_kaspar_schuster,
    )

    random.seed(41)
    for trial in range(120):
        alpha = ["ab", "abc", "ab c def", "a"][trial % 4]
        s = "".join(random.choices(alpha, k=random.randint(0, 150)))
        assert lz76_complexity(s) == lz76_kaspar_schuster(s), repr(s)


def test_lz76_query_matches_serial(ray_session):
    from texrex_ray.functions.complexity import lz76_kaspar_schuster
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q289_lz76_complexity"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["lang", "text"])
    docs["c"] = docs["text"].map(lz76_kaspar_schuster)
    docs["nch"] = docs["text"].str.len()
    g = docs.groupby("lang")
    want = {
        lang: (len(s), int(s["c"].sum()), int(s["c"].min()),
               int(s["c"].max()),
               int(s["c"].sum()) * 1000 // int(s["nch"].sum()))
        for lang, s in g
    }
    have = {
        r["lang"]: (int(r["n_docs"]), int(r["sum_c"]), int(r["min_c"]),
                    int(r["max_c"]), int(r["c_per_kchar"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # complexity is positive and bounded by length
    assert all(0 < v[2] <= v[3] for v in want.values())


# ------------------------------------------------------------------- q290

def test_hamilton_apportionment_properties(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import HAMILTON_SEATS

    got = QUERIES["q290_hamilton_apportion"](SF)
    # seats sum EXACTLY to the budget (the whole point of Hamilton)
    assert int(got["seats"].sum()) == HAMILTON_SEATS
    # quota rule: floor(q) <= seats <= ceil(q)
    big_w = int(got["w_chars"].sum())
    num = got["w_chars"].astype("int64") * HAMILTON_SEATS
    lo = num // big_w
    hi = -(-num // big_w)
    assert ((got["seats"] >= lo) & (got["seats"] <= hi)).all()
    assert set(got["extra"].unique()).issubset({0, 1})


def test_hamilton_matches_serial_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import HAMILTON_SEATS

    got = QUERIES["q290_hamilton_apportion"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["source", "n_chars"])
    w = docs.groupby("source")["n_chars"].sum().sort_index()
    big_w = int(w.sum())
    rows = []
    for src, wc in w.items():
        rows.append([src, int(wc), int(wc) * HAMILTON_SEATS // big_w,
                     int(wc) * HAMILTON_SEATS % big_w])
    r_extra = HAMILTON_SEATS - sum(r[2] for r in rows)
    # largest remainder, ties by source asc
    order = sorted(rows, key=lambda r: (-r[3], r[0]))
    bonus = {r[0] for r in order[:r_extra]}
    want = {r[0]: (r[1], r[2], 1 if r[0] in bonus else 0,
                   r[2] + (1 if r[0] in bonus else 0)) for r in rows}
    have = {
        r["source"]: (int(r["w_chars"]), int(r["base_seats"]),
                      int(r["extra"]), int(r["seats"]))
        for _, r in got.iterrows()
    }
    assert have == want


# ------------------------------------------------------------------- q291

def test_boxmeans_sat_equals_direct_loop(ray_session):
    from texrex_ray.stages.images import BoxMeans

    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, (17, 23, 3)).astype(np.uint8)
    lum = px.astype(np.int64).sum(axis=2)
    sat = np.zeros((18, 24), dtype=np.int64)
    sat[1:, 1:] = lum.cumsum(axis=0).cumsum(axis=1)
    for b in range(12):
        y0, x0, bh, bw = BoxMeans.box_for("imgX", b, 17, 23)
        assert 0 <= y0 and y0 + bh <= 17 and 0 <= x0 and x0 + bw <= 23
        via_sat = int(sat[y0 + bh, x0 + bw] - sat[y0, x0 + bw]
                      - sat[y0 + bh, x0] + sat[y0, x0])
        direct = int(lum[y0:y0 + bh, x0:x0 + bw].sum())
        assert via_sat == direct
    # constant image: every box mean is exactly 3*value*1000
    flat = np.full((9, 9, 3), 11, dtype=np.uint8)
    lum2 = flat.astype(np.int64).sum(axis=2)
    assert (lum2 == 33).all()


def test_boxmeans_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q291_box_means"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/boxmeans_fixture.parquet")
    want = {
        fmt: (len(s), int(s["mean_milli"].sum()),
              int(s["mean_milli"].min()), int(s["mean_milli"].max()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_boxes"]), int(r["sum_mean"]),
                   int(r["min_mean"]), int(r["max_mean"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # luminance means live in [0, 765000] milli-units
    assert all(0 <= v[2] <= v[3] <= 765_000 for v in want.values())
