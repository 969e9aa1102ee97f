"""Round-4 batch EE: crawl coverage, dup cluster sizes, dedup burden."""

import pandas as pd

SF = "/root/testdata/sf0.001"
G42_EDGES = "/root/repo/tests/fixtures/oracle/graph42_edges.parquet"
G42_SEEDS = "/root/repo/tests/fixtures/oracle/graph42_seeds.parquet"
VISITS = "/root/repo/tests/fixtures/oracle/crawl_visits_sf0.01.parquet"


# ------------------------------------------------------------------- q255

def test_crawl_coverage_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q255_crawl_coverage"](SF)
    edges = pd.read_parquet(G42_EDGES)
    adj = {}
    for a, b in zip(edges["src"], edges["dst"]):
        adj.setdefault(a, set()).add(b)
    frontier = set(pd.read_parquet(G42_SEEDS)["url"])
    reach = set(frontier)
    while frontier:  # independent set-BFS
        nxt = set()
        for u in frontier:
            nxt |= adj.get(u, set())
        frontier = nxt - reach
        reach |= frontier
    visited = set(pd.read_parquet(VISITS)["url"])
    want = {}
    for u in reach:
        h = u.split("/")[2]
        n, v = want.get(h, (0, 0))
        want[h] = (n + 1, v + (u in visited))
    want = {h: (n, v, v * PPM // n) for h, (n, v) in want.items()}
    have = {
        r["host"]: (int(r["n_reachable"]), int(r["n_visited"]),
                    int(r["coverage_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # seeds are reachable by definition; visits stay within the graph
    assert sum(v[0] for v in have.values()) >= len(
        pd.read_parquet(G42_SEEDS)
    )
    # a 150-step walk cannot cover everything reachable
    assert sum(v[1] for v in have.values()) < sum(
        v[0] for v in have.values()
    )


# ------------------------------------------------------------------- q256

def test_dup_cluster_sizes_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    pairs = QUERIES["q11_near_dup_pairs"](SF)
    got = QUERIES["q256_dup_cluster_sizes"](SF)
    # independent union-find over the q11 pair list
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for _, r in pairs.iterrows():
        a, b = find(int(r["id_small"])), find(int(r["id_big"]))
        if a != b:
            parent[max(a, b)] = min(a, b)
    nodes = set(pairs["id_small"].astype(int)) | set(
        pairs["id_big"].astype(int)
    )
    from collections import Counter

    sizes = Counter(find(n) for n in nodes)
    hist = Counter(sizes.values())
    want = {
        sz: (cnt, sz * cnt) for sz, cnt in hist.items()
    }
    have = {
        int(r["cluster_size"]): (int(r["n_clusters"]), int(r["n_docs"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # clusters have at least 2 members (they come from pairs)
    assert min(have) >= 2
    assert sum(v[1] for v in have.values()) == len(nodes)


# ------------------------------------------------------------------- q257

def test_dedup_burden_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    pairs = QUERIES["q11_near_dup_pairs"](SF)
    got = QUERIES["q257_dedup_burden"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    black = set(pairs["id_small"].astype(int))
    want = {}
    for src, sub in docs.groupby("source"):
        n = len(sub)
        rem = int(sub["doc_id"].astype(int).isin(black).sum())
        want[src] = (n, rem, rem * PPM // n)
    have = {
        r["source"]: (int(r["n_docs"]), int(r["n_removed"]),
                      int(r["removed_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # removals reconcile with the survivor count from q12
    survivors = QUERIES["q12_near_dup_survivors"](SF)
    n_surv = survivors.count() if hasattr(survivors, "count") else len(
        survivors
    )
    import ray.data

    if isinstance(survivors, ray.data.Dataset):
        n_surv = survivors.count()
    assert sum(v[0] - v[1] for v in have.values()) == n_surv
