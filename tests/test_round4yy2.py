"""Round-4 batch YY2: bridges/articulation, roaring census, MATTR."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q313

def test_bridges_known_and_fuzz(ray_session):
    import random

    import ray.data

    from texrex_ray.ops.graph import (
        bridges_articulation, bridges_articulation_brute,
    )

    # path: every edge a bridge, every interior node articulation
    r = bridges_articulation_brute(
        [("a", "b"), ("b", "c"), ("c", "d")])
    assert (r["n_bridges"], r["n_articulation"]) == (3, 2)
    # cycle: none
    r2 = bridges_articulation_brute(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert (r2["n_bridges"], r2["n_articulation"]) == (0, 0)
    # two triangles sharing one vertex: no bridges, shared vertex cuts
    r3 = bridges_articulation_brute(
        [("a", "b"), ("b", "c"), ("c", "a"),
         ("a", "x"), ("x", "y"), ("y", "a")])
    assert (r3["n_bridges"], r3["n_articulation"]) == (0, 1)
    random.seed(25)
    for _ in range(8):
        nodes = [f"n{i}" for i in range(random.randint(6, 22))]
        edges = list({tuple(sorted(random.sample(nodes, 2)))
                      for _ in range(random.randint(5, 35))})
        want = bridges_articulation_brute(edges)
        got = bridges_articulation(
            ray.data.from_items([{"src": a, "dst": b} for a, b in edges]))
        assert got == want


def test_bridges_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q313_bridges_articulation"](SF).iloc[0]
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/bridges_fixture.parquet").iloc[0]
    assert got.to_dict() == fx.to_dict()


# ------------------------------------------------------------------- q314

def test_roaring_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import ROAR_SPAN

    got = QUERIES["q314_roaring_census"](SF)
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderkey", "o_orderstatus"])
    o["chunk"] = o["o_orderkey"].astype("int64") // ROAR_SPAN
    want = {}
    bm = ROAR_SPAN // 8
    for st, sub in o.groupby("o_orderstatus"):
        cnts = sub.groupby("chunk").size()
        is_arr = 2 * cnts < bm
        bytes_total = int(np.where(is_arr, 2 * cnts, bm).sum())
        want[st] = (len(cnts), int(is_arr.sum()),
                    int((~is_arr).sum()), bytes_total, int(cnts.sum()))
    have = {
        r["status"]: (int(r["n_containers"]), int(r["n_array"]),
                      int(r["n_bitmap"]), int(r["bytes_total"]),
                      int(r["n_rows"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the census never exceeds the dense-bitmap cost
    assert all(v[3] <= v[0] * bm for v in want.values())
    # row conservation
    assert sum(v[4] for v in want.values()) == len(o)


# ------------------------------------------------------------------- q315

def test_mattr_sliding_window_unit(ray_session):
    """Incremental sliding distinct == per-window set() recount, and
    MATTR is length-invariant where plain TTR is not."""
    from texrex_ray.pipelines.queries.census_b import MATTR_WINDOW

    def mattr_pairs(toks):
        n = len(toks)
        out = []
        for w in range(0, n - MATTR_WINDOW + 1):
            out.append(len(set(toks[w:w + MATTR_WINDOW])))
        return out

    import random

    random.seed(30)
    vocab = [f"t{i}" for i in range(9)]
    toks = [random.choice(vocab) for _ in range(120)]
    # incremental twin (same loop the query stage runs)
    cnt: dict = {}
    distinct = 0
    inc = []
    for i, w in enumerate(toks):
        if cnt.get(w, 0) == 0:
            distinct += 1
        cnt[w] = cnt.get(w, 0) + 1
        if i >= MATTR_WINDOW:
            old = toks[i - MATTR_WINDOW]
            cnt[old] -= 1
            if cnt[old] == 0:
                distinct -= 1
        if i >= MATTR_WINDOW - 1:
            inc.append(distinct)
    assert inc == mattr_pairs(toks)
    # doubling a text leaves per-window averages nearly unchanged
    # (length-invariance, up to the seam windows)
    a = mattr_pairs(toks)
    b = mattr_pairs(toks + toks)
    assert abs(sum(a) / len(a) - sum(b) / len(b)) < 1.0


def test_mattr_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import MATTR_WINDOW

    got = QUERIES["q315_mattr"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["text", "lang"])
    want: dict = {}
    for lang, sub in docs.groupby("lang"):
        nw = sd = 0
        for txt in sub["text"]:
            toks = [w for w in txt.split(" ") if w]
            for w in range(0, len(toks) - MATTR_WINDOW + 1):
                nw += 1
                sd += len(set(toks[w:w + MATTR_WINDOW]))
        if nw:
            want[lang] = (nw, sd, sd * 1000 // (MATTR_WINDOW * nw))
    have = {
        r["lang"]: (int(r["n_windows"]), int(r["sum_distinct"]),
                    int(r["mattr_milli"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # MATTR is a proper fraction of the window size
    assert all(0 < v[2] <= 1000 for v in want.values())
