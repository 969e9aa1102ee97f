"""Round-4 batch AE: LT cascade, clustering-by-degree, reciprocity."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"

EDGES = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"


# ------------------------------------------------------------------- q328

def test_lt_cascade_monotone_and_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import LT_SEEDS

    got = QUERIES["q328_lt_cascade"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/cascade_fixture.parquet")
    assert got.values.tolist() == fx.values.tolist()
    # cascade is monotone: active counts strictly increase, n_new > 0
    act = got["n_active"].tolist()
    assert act == sorted(act) and len(set(act)) == len(act)
    assert (got["n_new"].iloc[1:] > 0).all()
    assert int(got["n_active"].iloc[0]) == LT_SEEDS
    # conservation: n_active is the running sum of n_new
    assert (got["n_new"].cumsum() == got["n_active"]).all()


def test_lt_thresholds_deterministic(ray_session):
    from texrex_ray.pipelines.queries.census_b import _lt_thresholds

    t1 = _lt_thresholds(["a", "b", "c"])
    t2 = _lt_thresholds(["c", "a", "b"])
    assert t1 == t2
    assert all(1 <= v <= 100 for v in t1.values())


# ------------------------------------------------------------------- q329

def test_clustcoef_known_graphs(ray_session):
    """Dict-set twin on closed forms: triangle has c=1 everywhere,
    star has c=0."""
    def twin(edges):
        und = {(a, b) if a < b else (b, a) for a, b in edges if a != b}
        adj = {}
        for a, b in und:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {
            v: (sum(len(adj[u] & nb) for u in nb),
                len(nb) * (len(nb) - 1))
            for v, nb in adj.items()
        }

    tri = twin([("a", "b"), ("b", "c"), ("c", "a")])
    assert all(t2 == w for t2, w in tri.values())  # coefficient 1
    star = twin([("h", "a"), ("h", "b"), ("h", "c")])
    assert star["h"] == (0, 6)  # no closed wedges at the hub


def test_clustcoef_query_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q329_clustering_by_degree"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/clustcoef_fixture.parquet")
    g = fx.groupby("deg_bucket").agg(
        n_nodes=("node", "size"), sum_tri2=("tri2", "sum"),
        sum_wedges=("wedges", "sum")).reset_index()
    g["coef_ppm"] = np.where(
        g["sum_wedges"] > 0, g["sum_tri2"] * 1_000_000 // g["sum_wedges"], 0)
    assert got.values.tolist() == g.sort_values(
        "deg_bucket").reset_index(drop=True).values.tolist()
    # a coefficient is a proper fraction
    assert (got["coef_ppm"] <= 1_000_000).all()
    # global identity: sum of closed wedges = 6x triangle count, even
    assert int(fx["tri2"].sum()) % 6 == 0


# ------------------------------------------------------------------- q330

def test_reciprocity_query_matches_naive_join(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q330_reciprocity"](SF).iloc[0]
    e = pd.read_parquet(EDGES).drop_duplicates()
    e = e[e["src"] != e["dst"]]
    rev = e.rename(columns={"src": "dst", "dst": "src"})
    mutual = e.merge(rev, on=["src", "dst"])
    assert int(got["n_edges"]) == len(e)
    assert int(got["n_mutual_arcs"]) == len(mutual)
    assert int(got["reciprocity_ppm"]) == \
        len(mutual) * 1_000_000 // len(e)
    # mutual arcs come in pairs
    assert int(got["n_mutual_arcs"]) % 2 == 0
