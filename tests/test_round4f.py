"""Round-4 batch F: KS drift, decayed activity, minhash estimator audit."""

import re

import numpy as np
import pandas as pd
import ray.data

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q161

def test_ks_drift_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q161_ks_drift"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    vals = np.sort(docs["n_chars"].unique())
    n = len(docs)
    for _, r in got.iterrows():
        src = r["source"]
        mine = docs[docs["source"] == src]["n_chars"].to_numpy()
        rest = docs[docs["source"] != src]["n_chars"].to_numpy()
        ks_num = 0
        for v in vals:
            cs = int((mine <= v).sum())
            cr = int((rest <= v).sum())
            ks_num = max(ks_num, abs(cs * len(rest) - cr * len(mine)))
        assert int(r["ks_ppm"]) == ks_num * PPM // (len(mine) * len(rest))
        assert int(r["n_docs"]) == len(mine)


def test_ks_identical_halves_is_zeroish(ray_session):
    # a source compared against a COPY of itself has KS 0 by construction;
    # sanity for the cross-multiplied numerator: identical ECDFs cancel
    from texrex_ray.pipelines.queries.analytics_a import PPM

    xs = np.array([3, 5, 5, 9, 9, 9])
    # cs*nr - cr*ns with mine == rest
    for v in np.unique(xs):
        cs = int((xs <= v).sum())
        assert cs * len(xs) - cs * len(xs) == 0
    assert PPM > 0


# ------------------------------------------------------------------- q162

def test_decayed_activity_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import DECAY_MAX_SHIFT, PPM, WEEK_US

    got = QUERIES["q162_decayed_activity"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].astype("int64")
    m = int(us.max())
    want: dict = {}
    for uid, t in zip(ev["user_id"], us):
        shift = min((m - int(t)) // WEEK_US, DECAY_MAX_SHIFT)
        n, w = want.get(int(uid), (0, 0))
        want[int(uid)] = (n + 1, w + PPM // (1 << shift))
    have = {
        int(r["user_id"]): (int(r["n_events"]), int(r["decayed_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # decay sanity: no user's decayed score exceeds n_events * 1e6
    assert (got["decayed_ppm"] <= got["n_events"] * PPM).all()


# ------------------------------------------------------------------- q163

def test_minhash_audit_matches_serial(ray_session):
    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q163_minhash_audit"](SF)
    assert len(got) > 0
    docs = pd.read_parquet(f"{SF}/documents.parquet").set_index("doc_id")

    def sig(did: int) -> np.ndarray:
        toks = LATIN_TOKEN_RE.findall((docs.loc[did, "text"] or "").lower())
        s, ok = rabin_minhash_signatures([toks], k=100, n=5)
        assert ok[0]
        return s[0]

    def grams(did: int) -> frozenset:
        ws = re.findall(r"[a-z]+", (docs.loc[did, "text"] or "").lower())
        return frozenset(" ".join(ws[i:i + 3]) for i in range(len(ws) - 2))

    for _, r in got.iterrows():
        a, b = int(r["id_a"]), int(r["id_b"])
        match = int((sig(a) == sig(b)).sum())
        assert int(r["n_match"]) == match
        assert int(r["est_ppm"]) == match * PPM // 100
        ga, gb = grams(a), grams(b)
        inter = len(ga & gb)
        union = len(ga) + len(gb) - inter
        assert int(r["j_ppm"]) == inter * PPM // union
        # the whole point: the estimate tracks the exact value
        assert abs(int(r["est_ppm"]) - int(r["j_ppm"])) < 250_000


def test_minhash_sigs_fixture_fresh():
    """Committed signature fixture equals a live recompute at sf0.01."""
    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE

    fix = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/minhash_sigs_sf0.01.parquet"
    )
    docs = pd.read_parquet("/root/testdata/sf0.01/documents.parquet").set_index(
        "doc_id"
    )
    for did, sub in fix.groupby("doc_id"):
        toks = LATIN_TOKEN_RE.findall((docs.loc[did, "text"] or "").lower())
        s, ok = rabin_minhash_signatures([toks], k=100, n=5)
        assert ok[0]
        want = sub.sort_values("h_idx")["sig"].to_numpy().astype(np.uint64)
        assert (s[0] == want).all(), did


# ------------------------------------------------------------------- q164

def test_join_estimate_audit_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.flagships import _doc_bucket

    got = QUERIES["q164_join_estimate_audit"](SF)
    o = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey"])
    l = pd.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    ca = o.groupby("o_orderkey").size()
    cb = l.groupby("l_orderkey").size()
    ba = pd.Series(_doc_bucket(ca.index, 64), index=ca.index)
    bb = pd.Series(_doc_bucket(cb.index, 64), index=cb.index)
    for _, r in got.iterrows():
        bk = int(r["bucket"])
        a = ca[ba == bk]
        b = cb[bb == bk]
        actual = sum(int(a[k]) * int(b[k]) for k in a.index if k in b.index)
        assert int(r["n_a"]) == int(a.sum())
        assert int(r["n_b"]) == int(b.sum())
        assert int(r["ndv_a"]) == len(a)
        assert int(r["ndv_b"]) == len(b)
        assert int(r["actual_rows"]) == actual
        assert int(r["est_rows"]) == int(a.sum()) * int(b.sum()) // max(
            len(a), len(b)
        )


# ------------------------------------------------------------------- q165

def test_band_join_matches_bruteforce(ray_session):
    from texrex_ray.ops.bandjoin import band_join_self

    rng = np.random.default_rng(9)
    vals = rng.integers(0, 400, size=150)
    rows = [{"id": i, "pc": int(v)} for i, v in enumerate(vals)]
    ds = ray.data.from_items(rows).repartition(7)
    for delta in (0, 7, 30):
        got = band_join_self(
            ds, id_col="id", value_col="pc", delta=delta
        )
        want = {}
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                d = abs(int(vals[i]) - int(vals[j]))
                if d <= delta:
                    want[(i, j)] = d
        have = {
            (int(r["id_a"]), int(r["id_b"])): int(r["dist"])
            for _, r in got.iterrows()
        }
        assert have == want, delta


def test_band_join_query_matches_sql_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import BAND_DELTA_C

    got = QUERIES["q165_band_join"](SF)
    o = pd.read_parquet(f"{SF}/orders.parquet")
    pc = np.round(o["o_totalprice"].to_numpy() * 100).astype(np.int64)
    ids = o["o_orderkey"].to_numpy()
    want = {}
    for i in range(len(ids)):
        for j in range(len(ids)):
            if ids[j] > ids[i] and abs(int(pc[i]) - int(pc[j])) <= BAND_DELTA_C:
                a, b = int(min(ids[i], ids[j])), int(max(ids[i], ids[j]))
                want[(a, b)] = abs(int(pc[i]) - int(pc[j]))
    have = {
        (int(r["id_a"]), int(r["id_b"])): int(r["dist"])
        for _, r in got.iterrows()
    }
    assert have == want


# ------------------------------------------------------------------- q166

def test_skyline_matches_bruteforce(ray_session):
    from texrex_ray.ops.skyline import skyline2d

    rng = np.random.default_rng(13)
    rows = [
        {"id": i, "p": int(rng.integers(0, 50)), "m": int(rng.integers(0, 50))}
        for i in range(120)
    ]
    # planted exact duplicates: ties in both dims are kept on both sides
    rows.append({"id": 500, "p": 49, "m": 0})
    rows.append({"id": 501, "p": 49, "m": 0})
    ds = ray.data.from_items(rows).repartition(6)
    got = skyline2d(ds, id_col="id", max_col="p", min_col="m")

    def dominated(x, y):
        return (
            y["p"] >= x["p"] and y["m"] <= x["m"]
            and (y["p"] > x["p"] or y["m"] < x["m"])
        )

    want = sorted(
        r["id"] for r in rows
        if not any(dominated(r, y) for y in rows if y["id"] != r["id"])
    )
    assert got["id"].tolist() == want
    assert {500, 501} <= set(got["id"])


def test_skyline_layout_invariant(ray_session):
    from texrex_ray.ops.skyline import skyline2d

    rng = np.random.default_rng(17)
    rows = [
        {"id": i, "p": int(rng.integers(0, 30)), "m": int(rng.integers(0, 30))}
        for i in range(80)
    ]
    a = skyline2d(ray.data.from_items(rows).repartition(2),
                  id_col="id", max_col="p", min_col="m")
    b = skyline2d(ray.data.from_items(rows).repartition(13),
                  id_col="id", max_col="p", min_col="m")
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------------------------- q167

def test_deadline_conversion_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import CONVERT_WINDOW_US

    got = QUERIES["q167_deadline_conversion"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    us = ev["ts"].astype("int64")
    want = {}
    for uid in ev["user_id"].unique():
        sub = ev[ev["user_id"] == uid]
        clicks = sorted(us[sub.index][sub["event_type"] == "click"])
        buys = sorted(us[sub.index][sub["event_type"] == "purchase"])
        if not clicks:
            continue
        conv = sum(
            1 for c in clicks
            if any(c < b <= c + CONVERT_WINDOW_US for b in buys)
        )
        want[int(uid)] = (len(clicks), conv)
    have = {
        int(r["user_id"]): (int(r["n_clicks"]), int(r["n_converted"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert sum(c for _, c in want.values()) > 0


# ------------------------------------------------------------------- q168

def test_winsorized_mean_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q168_winsorized_mean"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    vc = np.round(li["l_quantity"].to_numpy() * 100).astype(np.int64)
    for _, r in got.iterrows():
        vals = np.sort(vc[(li["l_returnflag"] == r["grp"]).to_numpy()])
        n = len(vals)
        p10 = int(vals[max(int(np.ceil(0.1 * n)), 1) - 1])
        p90 = int(vals[max(int(np.ceil(0.9 * n)), 1) - 1])
        w = np.clip(vals, p10, p90)
        assert int(r["p10_c"]) == p10 and int(r["p90_c"]) == p90
        assert int(r["winsor_mean_c"]) == int(w.sum()) // n
        assert int(r["n"]) == n


# ------------------------------------------------------------------- q169

def test_link_prediction_matches_bruteforce(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import LINKPRED_MIN_CN, PPM

    got = QUERIES["q169_link_prediction"]("/root/testdata/sf0.001")
    df = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
    )
    adj: dict = {}
    for s, d in zip(df["src"], df["dst"]):
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    want = {}
    nodes = sorted(adj)
    for z, ns in adj.items():
        ns = sorted(ns)
        for i, u in enumerate(ns):
            for v in ns[i + 1:]:
                cn, ra = want.get((u, v), (0, 0))
                want[(u, v)] = (cn + 1, ra + PPM // len(adj[z]))
    want = {
        k: v for k, v in want.items()
        if v[0] >= LINKPRED_MIN_CN and k[1] not in adj[k[0]]
    }
    have = {
        (r["u"], r["v"]): (int(r["cn"]), int(r["ra_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert len(want) > 0


# ------------------------------------------------------------------- q170

def test_source_cosine_matches_serial(ray_session):
    from collections import Counter

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q170_source_cosine"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    vec: dict = {}
    for src, txt in zip(docs["source"], docs["text"]):
        vec.setdefault(src, Counter()).update(
            re.findall(r"[a-z]+", (txt or "").lower())
        )
    for _, r in got.iterrows():
        a, b = vec[r["s_a"]], vec[r["s_b"]]
        d = sum(int(n) * int(b[t]) for t, n in a.items() if t in b)
        n2a = sum(int(v) ** 2 for v in a.values())
        n2b = sum(int(v) ** 2 for v in b.values())
        assert int(r["cos2_ppm"]) == d * d * PPM // (n2a * n2b)
    # squared cosine bounded by 1
    assert (got["cos2_ppm"] <= PPM).all()


# ------------------------------------------------------------------- q171

def test_zipf_head_matches_serial(ray_session):
    from collections import Counter

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q171_zipf_head"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    for _, r in got.iterrows():
        cnt = Counter()
        for txt in docs[docs["source"] == r["source"]]["text"]:
            cnt.update(re.findall(r"[a-z]+", (txt or "").lower()))
        top = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        head = sum(n for _, n in top)
        tot = sum(cnt.values())
        assert int(r["head10_ppm"]) == head * PPM // tot
        assert int(r["n_types"]) == len(cnt)


# ------------------------------------------------------------------- q172

def test_assortativity_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q172_assortativity"](SF)
    df = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
    )
    df = df[df["src"] != df["dst"]].drop_duplicates()
    od = df.groupby("src").size()
    idg = df.groupby("dst").size()
    xs = [int(od[s]) for s in df["src"]]
    ys = [int(idg[d]) for d in df["dst"]]
    n = len(df)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    syy = sum(b * b for b in ys)
    num = n * sxy - sx * sy
    den = (n * sxx - sx * sx) * (n * syy - sy * sy)
    sign = -1 if num < 0 else 1
    assert int(got["n_edges"][0]) == n
    assert int(got["num"][0]) == num
    assert int(got["r2_signed_ppm"][0]) == sign * (num * num * PPM // den)


# ------------------------------------------------------------------- q173

def test_hub_robustness_fragments_synthetic(ray_session):
    """On a graph DESIGNED to fragment (a star of cliques glued through
    one hub), removing the hub must split components — exercises the
    multi-component path the robust fixture graph never shows."""
    from texrex_ray.dedup.clusters import dup_clusters

    pairs = []
    # 3 cliques of sizes 5/4/3 glued through node 0
    base = 1
    for size in (5, 4, 3):
        members = list(range(base, base + size))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                pairs.append((u, v))
            pairs.append((0, u))
        base += size
    # remove hub 0
    survivors = [(a, b) for a, b in pairs if a != 0 and b != 0]
    labels = dup_clusters(
        ray.data.from_items([{"id_a": a, "id_b": b} for a, b in survivors])
    )
    sizes = sorted(
        labels.groupby("cluster_id").size().tolist(), reverse=True
    )
    assert sizes == [5, 4, 3]


def test_hub_robustness_query_matches_unionfind(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import HUBS_REMOVED

    got = QUERIES["q173_hub_robustness"](SF)
    df = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
    )
    df = df[df["src"] != df["dst"]].drop_duplicates()
    und = pd.DataFrame({
        "a": pd.concat([df["src"], df["dst"]]),
        "b": pd.concat([df["dst"], df["src"]]),
    }).drop_duplicates()
    deg = und.groupby("a").size().reset_index()
    hubs = set(
        deg.sort_values([0, "a"], ascending=[False, True])["a"].head(
            HUBS_REMOVED
        )
    )
    ue = und[~und["a"].isin(hubs) & ~und["b"].isin(hubs)]
    parent = {n: n for n in set(ue["a"]) | set(ue["b"])}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ue["a"], ue["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    from collections import Counter

    sizes = sorted(
        Counter(find(n) for n in parent).values(), reverse=True
    )[:5]
    assert got["size"].tolist() == sizes


# ------------------------------------------------------------------- q174

def test_token_bucket_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import TB_CAP_US, TB_PERIOD_US

    got = QUERIES["q174_token_bucket"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    want = {}
    for uid, sub in ev.groupby("user_id"):
        ts = sub["ts"].astype("int64").tolist()
        tok, prev, thr = TB_CAP_US, None, 0
        for t in ts:
            if prev is not None:
                tok = min(tok + (t - prev), TB_CAP_US)
            if tok >= TB_PERIOD_US:
                tok -= TB_PERIOD_US
            else:
                thr += 1
            prev = t
        want[int(uid)] = (len(ts), thr)
    have = {
        int(r["user_id"]): (int(r["n_events"]), int(r["n_throttled"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert sum(n for n, _ in want.values()) == len(ev)


def test_token_bucket_burst_semantics():
    # 2-token burst: 3 back-to-back events -> exactly one throttled
    from texrex_ray.pipelines.queries.analytics_a import TB_CAP_US, TB_PERIOD_US

    tok, thr = TB_CAP_US, 0
    for _ in range(3):
        if tok >= TB_PERIOD_US:
            tok -= TB_PERIOD_US
        else:
            thr += 1
    assert thr == 1


# ------------------------------------------------------------------- q175

def test_range_partition_plan_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import RANGE_PARTS

    got = QUERIES["q175_range_partition_plan"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    vc = np.sort(np.round(li["l_extendedprice"].to_numpy() * 100).astype(np.int64))
    n = len(vc)
    bounds = [
        int(vc[max((i * n + RANGE_PARTS - 1) // RANGE_PARTS, 1) - 1])
        for i in range(1, RANGE_PARTS)
    ]
    part = np.searchsorted(np.asarray(bounds), vc, side="left")
    want = {}
    for p in np.unique(part):
        m = part == p
        want[int(p)] = (int(m.sum()), int(vc[m].min()), int(vc[m].max()))
    have = {
        int(r["part"]): (int(r["n_rows"]), int(r["min_c"]), int(r["max_c"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # partitions tile the table exactly
    assert sum(v[0] for v in want.values()) == n
    # equi-depth balance: max partition within 2x of ideal
    assert max(v[0] for v in want.values()) <= 2 * (n // RANGE_PARTS + 1)


# ------------------------------------------------------------------- q176

def test_k_anonymity_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import KANON_K, WEEK_US

    got = QUERIES["q176_k_anonymity"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    qi = {}
    for uid, sub in ev.groupby("user_id"):
        cohort = int(sub["ts"].astype("int64").min() // WEEK_US)
        cnt = sub.groupby("event_type").size()
        dom = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        qi[int(uid)] = (cohort, dom)
    want = {}
    for c in qi.values():
        want[c] = want.get(c, 0) + 1
    have = {
        (int(r["cohort"]), r["dom_type"]): (int(r["n_users"]), int(r["at_risk"]))
        for _, r in got.iterrows()
    }
    assert have == {k: (n, int(n < KANON_K)) for k, n in want.items()}
    # total users conserved
    assert sum(n for n, _ in have.values()) == len(qi)


# ------------------------------------------------------------------- q177

def test_periodicity_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import ACF_MAX_LAG, HOUR_US, PPM

    got = QUERIES["q177_periodicity"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    hr = (ev["ts"].astype("int64") // HOUR_US).to_numpy()
    h0, h1 = int(hr.min()), int(hr.max())
    grid = np.zeros(h1 - h0 + 1, dtype=object)
    for h in hr:
        grid[int(h) - h0] += 1
    n, sx = len(grid), int(sum(grid))
    d = [n * int(x) - sx for x in grid]
    c0 = sum(v * v for v in d)
    for _, r in got.iterrows():
        k = int(r["lag"])
        ck = sum(d[i] * d[i + k] for i in range(n - k)) if k < n else 0
        sign = -1 if ck < 0 else 1
        assert int(r["r_ppm"]) == sign * (abs(ck) * PPM // c0), k
    assert len(got) == ACF_MAX_LAG
    # |r| <= 1 by Cauchy-Schwarz
    assert (got["r_ppm"].abs() <= PPM).all()


# ------------------------------------------------------------------- q178

def test_cusum_changepoint_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import DAY_US

    got = QUERIES["q178_cusum_changepoint"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    day = (ev["ts"].astype("int64") // DAY_US).to_numpy()
    d0, d1 = int(day.min()), int(day.max())
    grid = [0] * (d1 - d0 + 1)
    for d in day:
        grid[int(d) - d0] += 1
    n, sx = len(grid), sum(grid)
    cs, best_v, best_i, acc = [], -1, -1, 0
    for i, x in enumerate(grid):
        acc += n * x - sx
        if abs(acc) > best_v:
            best_v, best_i = abs(acc), i
    assert int(got["cp_day"][0]) == d0 + best_i
    assert int(got["max_abs_cusum"][0]) == best_v
    assert int(got["n_days"][0]) == n


# ------------------------------------------------------------------- q179

def test_bounce_rate_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM, WEEK_US

    got = QUERIES["q179_bounce_rate"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"]
    )
    agg: dict = {}
    for uid, sub in ev.groupby("user_id"):
        us = sub["ts"].astype("int64").tolist()
        cohort = int(min(us) // WEEK_US)
        sizes, cur = [], 1
        for a, b in zip(us, us[1:]):
            if b - a > 1_800_000_000:
                sizes.append(cur)
                cur = 1
            else:
                cur += 1
        sizes.append(cur)
        s, bnc = agg.get(cohort, (0, 0))
        agg[cohort] = (s + len(sizes), bnc + sum(1 for x in sizes if x == 1))
    have = {
        int(r["cohort"]): (int(r["n_sessions"]), int(r["n_bounces"]),
                           int(r["bounce_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == {
        c: (s, b, b * PPM // s) for c, (s, b) in agg.items()
    }
    assert sum(b for _, b, _ in have.values()) > 0


# ------------------------------------------------------------------- q180

def test_random_failure_matches_unionfind(ray_session):
    from texrex_ray.functions.hashing import md5_lower64
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import FAIL_PCT

    got = QUERIES["q180_random_failure"](SF)
    df = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
    )
    df = df[df["src"] != df["dst"]].drop_duplicates()
    und = pd.DataFrame({
        "a": pd.concat([df["src"], df["dst"]]),
        "b": pd.concat([df["dst"], df["src"]]),
    }).drop_duplicates()
    all_nodes = sorted(set(und["a"]))
    h = md5_lower64(all_nodes) % np.uint64(100)
    dead = {n for n, hv in zip(all_nodes, h) if int(hv) < FAIL_PCT}
    ue = und[~und["a"].isin(dead) & ~und["b"].isin(dead)]
    parent = {n: n for n in set(ue["a"]) | set(ue["b"])}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ue["a"], ue["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    from collections import Counter

    sizes = sorted(Counter(find(n) for n in parent).values(), reverse=True)[:5]
    assert got["size"].tolist() == sizes
    # random failure hurts less than the targeted attack (AJB curve):
    # the survivor giant component keeps most of the surviving nodes
    assert sizes[0] > 0.8 * len(parent)


# ------------------------------------------------------------------- q181

def test_cohort_value_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import WEEK_US

    got = QUERIES["q181_cohort_value"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet")
    wk = ev["ts"].astype("int64") // WEEK_US
    cohort = wk.groupby(ev["user_id"]).transform("min")
    vc = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    want: dict = {}
    for c, w, v in zip(cohort, wk, vc):
        key = (int(c), int(w - c))
        s, n = want.get(key, (0, 0))
        want[key] = (s + int(v), n + 1)
    have = {
        (int(r["cohort"]), int(r["offset_wk"])): (int(r["value_c"]),
                                                  int(r["n_events"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert sum(n for _, n in want.values()) == len(ev)


# ------------------------------------------------------------------- q182

def test_phash_format_matrix_matches_bruteforce(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q182_phash_format_matrix"](SF)
    fix = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/images_phash_n300_s42.parquet"
    )
    ids = fix["image_id"].tolist()
    ph = fix["phash"].to_numpy().astype(np.uint64)
    fmt = dict(zip(fix["image_id"], fix["fmt"]))
    want: dict = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = int(bin(int(ph[i]) ^ int(ph[j])).count("1"))
            if d <= 6:
                a, b = ids[i], ids[j]
                if a > b:
                    a, b = b, a
                key = tuple(sorted((fmt[a], fmt[b])))
                n, m = want.get(key, (0, 64))
                want[key] = (n + 1, min(m, d))
    have = {
        (r["fmt_a"], r["fmt_b"]): (int(r["n_pairs"]), int(r["min_hamming"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert len(want) > 0


def test_images_phash_fixture_fresh(ray_session):
    """Committed (image_id, phash, w, h, fmt) fixture equals the live
    deterministic codec fixture's metadata."""
    from texrex_ray.pipelines.caption import fixture_path

    d = fixture_path(n=300, seed=42)
    live = pd.read_parquet(
        f"{d}/images.parquet",
        columns=["image_id", "phash", "w", "h", "fmt"],
    ).sort_values("image_id").reset_index(drop=True)
    fix = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/images_phash_n300_s42.parquet"
    ).sort_values("image_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(live, fix)
