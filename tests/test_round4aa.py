"""Round-4 batch AA: prefix-scan watermark, front-coding, postings runs."""

import hashlib

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
EDGES = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"


# ------------------------------------------------- prefix_scan_max (op)

def test_prefix_scan_max_exact_on_shuffled_input(ray_session):
    import ray
    from texrex_ray.ops.window import prefix_scan_max

    rng = np.random.default_rng(7)
    n = 3000
    order = rng.permutation(n).astype(np.int64)
    val = rng.integers(-(10**6), 10**9, n).astype(np.int64)
    ds = ray.data.from_pandas(
        pd.DataFrame({"o": order, "v": val})
    ).repartition(5)
    out = prefix_scan_max(ds, "o", "v", n_buckets=11).to_pandas()
    out = out.sort_values("o").reset_index(drop=True)
    ref = pd.DataFrame({"o": order, "v": val}).sort_values("o")
    want = np.empty(n, dtype=np.int64)
    want[0] = -(2**62)
    want[1:] = np.maximum.accumulate(ref["v"].to_numpy()[:-1])
    assert (out["prev_max"].to_numpy() == want).all()


def test_prefix_scan_max_layout_invariant(ray_session):
    import ray
    from texrex_ray.ops.window import prefix_scan_max

    df = pd.DataFrame(
        {"o": np.arange(500, dtype=np.int64)[::-1],
         "v": (np.arange(500, dtype=np.int64) * 37) % 101}
    )
    a = prefix_scan_max(
        ray.data.from_pandas(df).repartition(3), "o", "v", n_buckets=4
    ).to_pandas().sort_values("o").reset_index(drop=True)
    b = prefix_scan_max(
        ray.data.from_pandas(df).repartition(17), "o", "v", n_buckets=32
    ).to_pandas().sort_values("o").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------------------------- q243

def test_late_events_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import (
        _ARR_MOD, _ARR_SHIFT, LATENESS_US,
    )

    got = QUERIES["q243_late_events"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    assert str(ev["ts"].dtype) == "datetime64[us]"
    ev["t"] = ev["ts"].astype("int64")
    ev["arr"] = ev["event_id"].map(
        lambda i: (
            int.from_bytes(
                hashlib.md5(str(i).encode()).digest()[8:], "little"
            ) % _ARR_MOD
        ) * _ARR_SHIFT + i
    )
    ev = ev.sort_values("arr")
    t = ev["t"].to_numpy()
    pm = np.empty(len(t), dtype=np.int64)
    pm[0] = -(2**62)
    pm[1:] = np.maximum.accumulate(t[:-1])
    ev["late"] = pm - LATENESS_US > t
    want = {}
    for et, sub in ev.groupby("event_type"):
        n, l = len(sub), int(sub["late"].sum())
        want[et] = (n, l, l * PPM // n)
    have = {
        r["event_type"]: (int(r["n_events"]), int(r["n_late"]),
                          int(r["late_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the adversarial replay must produce BOTH late and on-time events
    assert 0 < sum(v[1] for v in have.values()) < sum(v[0] for v in have.values())


# ------------------------------------------------------------------- q244

def test_frontcoding_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q244_url_frontcoding"](SF)
    edges = pd.read_parquet(EDGES)
    urls = sorted(set(edges["dst"]))
    byhost = {}
    for u in urls:
        byhost.setdefault(u.split("/")[2], []).append(u)
    want = {}
    for host, us in byhost.items():
        raw = sum(len(u) for u in us)
        saved = 0
        for a, b in zip(us, us[1:]):
            k = 0
            while k < min(len(a), len(b)) and a[k] == b[k]:
                k += 1
            saved += k
        want[host] = (len(us), raw, saved, saved * PPM // raw)
    have = {
        r["host"]: (int(r["n_urls"]), int(r["bytes_raw"]),
                    int(r["bytes_saved"]), int(r["saved_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # same-host URLs share at least the scheme+host prefix
    assert all(v[2] > 0 for v in have.values() if v[0] > 1)


# ------------------------------------------------------------------- q245

def test_postings_runs_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q245_postings_runs"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {}
    for lang, sub in docs.groupby("lang"):
        ids = sorted(sub["doc_id"].astype(int))
        runs = sum(
            1 for i, d in enumerate(ids) if i == 0 or ids[i - 1] != d - 1
        )
        want[lang] = (len(ids), runs, runs * PPM // len(ids))
    have = {
        r["lang"]: (int(r["n_docs"]), int(r["n_runs"]), int(r["runs_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # interleaved langs: runs must be plural but fewer than docs+1
    assert all(1 <= v[1] <= v[0] for v in have.values())


def test_prefix_scan_edge_cases(ray_session):
    """Ties on the order key, negative orders, single row, empty."""
    import pyarrow as pa
    import ray
    from texrex_ray.ops.window import prefix_scan_max, prefix_scan_sum

    df = pd.DataFrame({"o": [5, 5, 5, -3, -3, 0], "v": [9, 1, 9, 4, 2, 7]})
    out = (
        prefix_scan_max(
            ray.data.from_pandas(df).repartition(3), "o", "v", n_buckets=4
        )
        .to_pandas()
        .sort_values(["o", "v"])
        .reset_index(drop=True)
    )
    # reference: rows ordered by (o, v); exclusive running max
    ref = df.sort_values(["o", "v"]).reset_index(drop=True)
    want = [-(2**62)]
    for v in ref["v"].to_numpy()[:-1]:
        want.append(max(want[-1], int(v)))
    assert out["prev_max"].tolist() == want

    one = prefix_scan_sum(
        ray.data.from_pandas(pd.DataFrame({"o": [1], "v": [42]})), "o", "v"
    ).to_pandas()
    assert one["prev_sum"].tolist() == [0]

    empty = ray.data.from_arrow(
        pa.table({"o": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    )
    assert prefix_scan_sum(empty, "o", "v").to_pandas().empty
    assert prefix_scan_max(empty, "o", "v").to_pandas().empty
