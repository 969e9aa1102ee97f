"""Round-4 session-4 batch F: seam energy, Kadane burst, exact k-th."""

import heapq

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q352

def test_seam_dp_matches_dijkstra():
    from texrex_ray.stages.images import SeamEnergy, seam_energy

    def dijkstra_seam(lum):
        e = seam_energy(lum)
        h, w = e.shape
        dist = {}
        heap = [(int(e[0, x]), 0, x) for x in range(w)]
        heapq.heapify(heap)
        best = None
        while heap:
            d, y, x = heapq.heappop(heap)
            if (y, x) in dist:
                continue
            dist[(y, x)] = d
            if y == h - 1:
                best = d if best is None else min(best, d)
                continue
            for dx in (-1, 0, 1):
                nx = x + dx
                if 0 <= nx < w and (y + 1, nx) not in dist:
                    heapq.heappush(heap, (d + int(e[y + 1, nx]), y + 1, nx))
        return best

    rng = np.random.default_rng(13)
    st = SeamEnergy.__new__(SeamEnergy)
    for _ in range(10):
        h, w = rng.integers(1, 16, 2)
        px = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        lum = px.astype(np.int64).sum(axis=2)
        assert st._seam(px) == dijkstra_seam(lum)


def test_seam_query_shape(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q352_seam_energy"](SF)
    assert int(got["n_images"].sum()) == 300
    assert (got["min_seam_cost"] >= 0).all()
    assert (got["min_seam_cost"] <= got["max_seam_cost"]).all()


# ------------------------------------------------------------------- q353

def test_kadane_matches_bruteforce(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _KADANE_BASE

    got = QUERIES["q353_kadane_burst"](SF).iloc[0]
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "event_id", "value"])
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    bests = []
    for _, sub in ev.groupby("user_id"):
        x = np.round(sub["value"].to_numpy() * 100).astype(np.int64) \
            - _KADANE_BASE
        # textbook Kadane (nonempty runs)
        best = cur = int(x[0])
        for v in x[1:]:
            cur = max(int(v), cur + int(v))
            best = max(best, cur)
        bests.append(best)
    bests = np.array(bests, np.int64)
    assert int(got["n_users"]) == len(bests)
    assert int(got["sum_best_c"]) == int(bests.sum())
    assert int(got["max_best_c"]) == int(bests.max())
    assert int(got["n_users_positive"]) == int((bests > 0).sum())


# ------------------------------------------------------------------- q354

def test_exact_kth_matches_numpy(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q354_exact_kth"](SF).iloc[0]
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_extendedprice"])
    x = np.sort(np.round(li["l_extendedprice"].to_numpy() * 100)
                .astype(np.int64))
    n = len(x)
    assert int(got["n_rows"]) == n
    assert int(got["p10_c"]) == int(x[(n + 9) // 10 - 1])
    assert int(got["p50_c"]) == int(x[(n + 1) // 2 - 1])
    assert int(got["p90_c"]) == int(x[(n * 9 + 9) // 10 - 1])
