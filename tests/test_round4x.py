"""Round-4 batch X: fanout Simpson, aspect buckets, makespan bound."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
EDGES = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"


def _host(s: pd.Series) -> pd.Series:
    return s.str.extract(r"http://([^/]+)/", expand=False)


# ------------------------------------------------------------------- q234

def test_fanout_simpson_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q234_fanout_simpson"](SF)
    edges = pd.read_parquet(EDGES)
    hs, hd = _host(edges["src"]), _host(edges["dst"])
    ext = pd.DataFrame({"hs": hs, "hd": hd})
    ext = ext[ext["hs"] != ext["hd"]]
    want = {}
    for h, sub in ext.groupby("hs"):
        n = sub.groupby("hd").size().to_numpy()
        N = int(n.sum())
        if N < 2:
            continue
        ph = int((n * (n - 1)).sum())
        want[h] = (N, len(n), ph * PPM // (N * (N - 1)))
    have = {
        r["host"]: (int(r["n_links"]), int(r["n_targets"]),
                    int(r["simpson_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # Simpson is a probability: bounded by PPM
    assert all(0 <= v[2] <= 1_000_000 for v in have.values())


# ------------------------------------------------------------------- q235

def test_aspect_buckets_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import ASPECT_BUCKETS

    got = QUERIES["q235_aspect_buckets"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    b_ppm = [rw * PPM // rh for rw, rh in ASPECT_BUCKETS]
    agg = {}
    for w, h in zip(imgs["w"].astype(int), imgs["h"].astype(int)):
        ippm = w * PPM // h
        dists = [abs(ippm - bp) for bp in b_ppm]
        i = dists.index(min(dists))  # lowest index wins ties
        rw, rh = ASPECT_BUCKETS[i]
        if w * rh >= h * rw:
            ret = h * rw * PPM // (rh * w)
        else:
            ret = w * rh * PPM // (rw * h)
        n, px, r = agg.get(i, (0, 0, 0))
        agg[i] = (n + 1, px + w * h, r + ret)
    have = {
        int(r["b_idx"]): (int(r["n_images"]), int(r["sum_px"]),
                          int(r["sum_retained_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == agg
    # every image is assigned exactly once
    assert got["n_images"].sum() == len(imgs)
    # retained fraction can never exceed 100% per image
    for _, r in got.iterrows():
        assert r["sum_retained_ppm"] <= r["n_images"] * PPM


# ------------------------------------------------------------------- q236

def test_makespan_bound_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_b import FETCH_US, MIN_GAP_US, N_WALKERS

    got = QUERIES["q236_makespan_bound"](SF)
    edges = pd.read_parquet(EDGES)
    urls = edges["dst"].drop_duplicates()
    per = _host(urls).value_counts()
    n_urls, mx = int(per.sum()), int(per.max())
    lb_pol = (mx - 1) * MIN_GAP_US + FETCH_US
    lb_work = -(-n_urls // N_WALKERS) * FETCH_US
    assert len(got) == 1
    r = got.iloc[0]
    assert (int(r["n_urls"]), int(r["n_hosts"]), int(r["max_host_pages"])) \
        == (n_urls, len(per), mx)
    assert int(r["lb_politeness_us"]) == lb_pol
    assert int(r["lb_work_us"]) == lb_work
    assert int(r["makespan_lb_us"]) == max(lb_pol, lb_work)
    # the bound is a real lower bound on any single-walker drain of the
    # hottest host
    assert int(r["makespan_lb_us"]) >= lb_pol
