"""Round-4 batch JJ: SHARDS reuse distance, blob count, isotonic PAVA."""

import hashlib

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q268

def test_reuse_distance_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import SHARDS_MOD

    got = QUERIES["q268_reuse_distance"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    keep = ev["user_id"].map(
        lambda u: int.from_bytes(
            hashlib.md5(str(int(u)).encode()).digest()[8:], "little"
        ) % SHARDS_MOD == 0
    )
    sub = ev[keep].sort_values(["ts", "event_id"]).reset_index(drop=True)
    # independent route: distinct-keys-between-positions via set over the
    # slice (the query replays an LRU move-to-front stack instead)
    users = sub["user_id"].astype(int).tolist()
    last = {}
    want = {}
    for pos, u in enumerate(users):
        if u not in last:
            d = -1
        else:
            d = len(set(users[last[u] + 1:pos]))
        want[d] = want.get(d, 0) + 1
        last[u] = pos
    have = dict(zip(got["dist"].astype(int), got["n_accesses"].astype(int)))
    assert have == want
    # cold misses = number of distinct sampled keys
    assert have[-1] == len(set(users))
    # a reuse beyond distance 0 must exist in any multi-user stream
    assert any(d > 0 for d in have)


# ------------------------------------------------------------------- q269

def _uf_blobs(px: np.ndarray, thresh: int = 383) -> int:
    """Independent route: union-find over foreground pixels (the stage
    uses vectorized min-label relaxation, the fixture a scalar BFS)."""
    lum = px.astype(np.int64).sum(axis=2)
    fg = lum > thresh
    h, w = fg.shape
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for y in range(h):
        for x in range(w):
            if not fg[y, x]:
                continue
            parent[(y, x)] = (y, x)
            if y and fg[y - 1, x]:
                parent[find((y, x))] = find((y - 1, x))
            if x and fg[y, x - 1]:
                parent[find((y, x))] = find((y, x - 1))
    return len({find(k) for k in parent})


def test_blob_count_stage_matches_union_find(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import BlobCount

    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet").head(30)
    bc = BlobCount()
    for _, r in imgs.iterrows():
        px = decode_image(bytes(r["bytes"]))
        assert bc._count(px) == _uf_blobs(px)


def test_blob_count_aggregate_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q269_blob_count"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/blob_counts_fixture.parquet"
    )
    want = {
        fmt: (len(s), int(s["n_blobs"].sum()),
              int(s["n_blobs"].min()), int(s["n_blobs"].max()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_images"]), int(r["sum_blobs"]),
                   int(r["min_blobs"]), int(r["max_blobs"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the corpus must span flat graphics and busy images
    assert any(v[3] > v[2] for v in want.values())


# ------------------------------------------------------------------- q270

def test_isotonic_matches_minimax(ray_session):
    from fractions import Fraction

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q270_isotonic"](SF)
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    li["qty"] = [int(round(q)) for q in li["l_quantity"]]
    li["cents"] = [int(round(x * 100)) for x in li["l_extendedprice"]]
    want = []
    for flag, sub in li.groupby("l_returnflag"):
        g = sub.groupby("qty").agg(s=("cents", "sum"), n=("cents", "size"))
        g = g.sort_index()
        qs = list(g.index)
        S, N = [0], [0]
        for q in qs:
            S.append(S[-1] + int(g.loc[q, "s"]))
            N.append(N[-1] + int(g.loc[q, "n"]))
        m = len(qs)

        def mean(i, j):
            return Fraction(S[j + 1] - S[i], N[j + 1] - N[i])

        # minimax characterization: fit[k] = max_{i<=k} min_{j>=k} mean(i,j)
        for k in range(m):
            fit = max(
                min(mean(i, j) for j in range(k, m)) for i in range(k + 1)
            )
            want.append((flag, qs[k], int(g.loc[qs[k], "n"]),
                         (fit.numerator * 1000) // fit.denominator))
    have = [
        (r["l_returnflag"], int(r["qty"]), int(r["n_items"]),
         int(r["fitted_mc"]))
        for _, r in got.iterrows()
    ]
    assert have == sorted(want)
    # monotone non-decreasing within each group — the defining invariant
    for _, s in got.groupby("l_returnflag"):
        fits = s.sort_values("qty")["fitted_mc"].tolist()
        assert fits == sorted(fits)
