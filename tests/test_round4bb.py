"""Round-4 batch BB: interval coverage, HTML depth, budget selection."""

import re

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------- prefix_scan_sum (op)

def test_prefix_scan_sum_exact_and_layout_invariant(ray_session):
    import ray
    from texrex_ray.ops.window import prefix_scan_sum

    rng = np.random.default_rng(3)
    n = 2000
    order = rng.permutation(n).astype(np.int64)
    val = rng.integers(0, 500, n).astype(np.int64)
    df = pd.DataFrame({"o": order, "v": val})
    a = prefix_scan_sum(
        ray.data.from_pandas(df).repartition(4), "o", "v", n_buckets=7
    ).to_pandas().sort_values("o").reset_index(drop=True)
    ref = df.sort_values("o")
    want = np.concatenate([[0], np.cumsum(ref["v"].to_numpy()[:-1])])
    assert (a["prev_sum"].to_numpy() == want).all()
    b = prefix_scan_sum(
        ray.data.from_pandas(df).repartition(19), "o", "v", n_buckets=64
    ).to_pandas().sort_values("o").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------------------------- q246

def test_interval_coverage_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import COVER_WINDOW_US

    got = QUERIES["q246_interval_coverage"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    ev["s"] = ev["ts"].astype("int64")
    want = {}
    for uid, sub in ev.groupby("user_id"):
        ivs = sorted(
            (int(s), int(s) + COVER_WINDOW_US) for s in sub["s"]
        )
        covered = 0
        hi = None
        for s, e in ivs:  # independent merge-sweep method
            if hi is None or s > hi:
                covered += e - s
                hi = e
            elif e > hi:
                covered += e - hi
                hi = e
        span = max(e for _, e in ivs) - ivs[0][0]
        want[int(uid)] = (len(ivs), covered, covered * PPM // span)
    have = {
        int(r["user_id"]): (int(r["n_events"]), int(r["covered_us"]),
                            int(r["util_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # union can never exceed span nor n * window
    for uid, (n, cov, ppm) in have.items():
        assert cov <= n * 1_800_000_000
        assert 0 < ppm <= 1_000_000


# ------------------------------------------------------------------- q247

def test_html_depth_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import VOID_TAGS
    from texrex_ray.sources.webgraph import make_webgraph

    got = QUERIES["q247_html_depth"](SF)
    g = make_webgraph(
        n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42,
        with_images=True,
    )
    tag_re = re.compile(r"<[^>]+>")
    name_re = re.compile(r"</?([a-zA-Z][a-zA-Z0-9]*)")
    per = {}
    for u, p in g.pages.items():
        depth = run = 0
        for tag in tag_re.findall(p.content.decode("latin-1")):
            if tag.startswith("</"):
                run -= 1
            elif tag.endswith("/>"):
                pass
            else:
                m = name_re.match(tag)
                if not (m and m.group(1).lower() in VOID_TAGS):
                    run += 1
            depth = max(depth, run)
        per.setdefault(p.host, []).append(depth)
    want = {
        h: (len(ds), max(ds), sum(ds)) for h, ds in per.items()
    }
    have = {
        r["host"]: (int(r["n_pages"]), int(r["max_depth"]),
                    int(r["sum_depth"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the synthetic grammar nests html>body>p/div>a: depth at least 4
    assert max(v[1] for v in have.values()) >= 4


# ------------------------------------------------------------------- q248

def test_budget_selection_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q248_budget_selection"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    rows = []
    for _, r in docs.iterrows():
        toks = TOK.findall(r["text"].lower())
        cost, value = len(toks), len(set(toks))
        okey = (PPM - value * PPM // cost) * 8589934592 + int(r["doc_id"])
        rows.append((r["source"], cost, okey))
    df = pd.DataFrame(rows, columns=["source", "cost", "okey"])
    budget = int(df["cost"].sum()) * 2 // 5
    df = df.sort_values("okey")
    df["prev"] = np.concatenate([[0], np.cumsum(df["cost"].to_numpy()[:-1])])
    df["sel"] = df["prev"] + df["cost"] <= budget
    want = {}
    for src, sub in df.groupby("source"):
        want[src] = (
            len(sub), int(sub["cost"].sum()), int(sub["sel"].sum()),
            int(sub.loc[sub["sel"], "cost"].sum()),
        )
    have = {
        r["source"]: (
            int(r["n_docs"]), int(r["tokens_total"]), int(r["n_selected"]),
            int(r["tokens_selected"]),
        )
        for _, r in got.iterrows()
    }
    assert have == want
    # the cut must bite: strictly between zero and everything
    n_sel = sum(v[2] for v in have.values())
    assert 0 < n_sel < sum(v[0] for v in have.values())
    # selected token mass respects the budget
    assert sum(v[3] for v in have.values()) <= budget
