"""Media / codec / audit census part 4 (PCA, DTW, ADPCM, loudness, NTT pair sums, subset sums; q388-q456).

Split from the former pipelines/queries.py monolith; registration
order across chunks is preserved by the package __init__ (which also
applies the curated first-50 driver window)."""

from __future__ import annotations

from texrex_ray.pipelines.queries._core import (  # noqa: F401
    Any,
    Callable,
    Count,
    Max,
    Min,
    ORACLE,
    QUERIES,
    Sum,
    _cents,
    _read,
    np,
    pa,
    pc,
    pd,
    pq,
    query,
    ray,
    re,
)
from texrex_ray.pipelines.queries.flagships import _TOKEN_RE, _av_n  # noqa: F401



# --------------------------------------------------------------------------
# TPC-H Q2 shape: minimum-cost supplier per part (q388)
# --------------------------------------------------------------------------
# Completes the TPC-H join-shape suite (Q1..Q22 analogs; no partsupp table
# in the testdata, so "supply cost" is the MIN lineitem extendedprice per
# (part, supplier) pair — the q337/q383 convention).

_Q2_SQL = """
WITH ps AS (
  SELECT l_partkey AS partkey, l_suppkey AS suppkey,
         CAST(ROUND(MIN(l_extendedprice) * 100) AS BIGINT) AS supplycost_c
  FROM lineitem GROUP BY 1, 2
), eligible AS (
  SELECT ps.*, s.s_name, s.s_acctbal, n.n_name
  FROM ps JOIN supplier s ON s.s_suppkey = ps.suppkey
  JOIN nation n ON n.n_nationkey = s.s_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey
  WHERE r.r_name = 'EUROPE'
)
SELECT CAST(ROUND(e.s_acctbal * 100) AS BIGINT) AS s_acctbal_c,
       e.s_name, e.n_name, e.partkey AS p_partkey, e.supplycost_c
FROM eligible e JOIN part p ON p.p_partkey = e.partkey
WHERE p.p_size % 10 = 0 AND p.p_type = 'STANDARD'
  AND e.supplycost_c = (SELECT MIN(e2.supplycost_c) FROM eligible e2
                        WHERE e2.partkey = e.partkey)
ORDER BY s_acctbal_c DESC, n_name, s_name, p_partkey
LIMIT 20
"""


@query("q388_mincost_supplier", sql=_Q2_SQL)
def q388_mincost_supplier(sf_dir: str):
    """TPC-H Q2 shape — for each STANDARD part in a size slice, the
    EUROPE supplier(s) achieving the minimum supply cost (ALL ties
    kept, the Q2 correlated-subquery semantics), top-20 by account
    balance.  Plan: both dimension reductions (region->supplier set
    with attrs; part slice set) broadcast via ray.put (Bloom-sized at
    the 100 TB point); the fact scan filters to the slice and emits
    per-batch (partkey, suppkey) MIN partials (combiner), ONE bucketed
    combine collapses cross-batch pairs, a second partkey-bucketed
    combine keeps the per-part min WITH ties — the exchanges carry
    filtered distinct pairs, never fact rows.  Attributes re-attach
    from the broadcast maps; the driver sorts a result-sized frame."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    sup = _read(sf_dir, "supplier",
                ["s_suppkey", "s_name", "s_acctbal", "s_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    eur_nk = nat.merge(reg[reg["r_name"] == "EUROPE"],
                       left_on="n_regionkey", right_on="r_regionkey")
    nation_name = dict(zip(eur_nk["n_nationkey"].astype(int), eur_nk["n_name"]))
    esup = sup[sup["s_nationkey"].isin(nation_name)]
    sattr = {
        int(r.s_suppkey): (r.s_name, int(round(r.s_acctbal * 100)),
                           nation_name[int(r.s_nationkey)])
        for r in esup.itertuples()
    }
    part = _read(sf_dir, "part", ["p_partkey", "p_size", "p_type"]).to_pandas()
    slice_pk = set(
        part.loc[(part["p_size"] % 10 == 0) & (part["p_type"] == "STANDARD"),
                 "p_partkey"].astype(int)
    )
    sset_ref, pset_ref = ray.put(set(sattr)), ray.put(slice_pk)

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])

    def pair_min(df: pd.DataFrame) -> pd.DataFrame:
        ss, pp = ray.get(sset_ref), ray.get(pset_ref)
        d = df[df["l_suppkey"].isin(ss) & df["l_partkey"].isin(pp)]
        if d.empty:
            return pd.DataFrame({"partkey": pd.Series([], dtype=np.int64),
                                 "suppkey": pd.Series([], dtype=np.int64),
                                 "cost": pd.Series([], dtype=np.float64)})
        g = d.groupby(["l_partkey", "l_suppkey"], as_index=False)["l_extendedprice"].min()
        return g.rename(columns={"l_partkey": "partkey", "l_suppkey": "suppkey",
                                 "l_extendedprice": "cost"})

    pairs = bucketed_groupby(
        li.map_batches(pair_min, batch_format="pandas"),
        ["partkey", "suppkey"],
        lambda df: df.groupby(["partkey", "suppkey"], as_index=False)["cost"].min(),
        n_buckets=8,
    )

    def keep_min_ties(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["supplycost_c"] = (df["cost"] * 100).round().astype(np.int64)
        part_min = df.groupby("partkey")["supplycost_c"].transform("min")
        return df.loc[df["supplycost_c"] == part_min,
                      ["partkey", "suppkey", "supplycost_c"]]

    winners = bucketed_groupby(pairs, ["partkey"], keep_min_ties,
                               n_buckets=8).to_pandas()
    att = winners["suppkey"].astype(int).map(sattr)
    winners["s_name"] = att.str[0]
    winners["s_acctbal_c"] = att.str[1].astype("int64")
    winners["n_name"] = att.str[2]
    winners["p_partkey"] = winners["partkey"].astype("int64")
    winners["supplycost_c"] = winners["supplycost_c"].astype("int64")
    out = (
        winners.sort_values(["s_acctbal_c", "n_name", "s_name", "p_partkey"],
                            ascending=[False, True, True, True])
        .head(20)
        .reset_index(drop=True)
    )
    return out[["s_acctbal_c", "s_name", "n_name", "p_partkey", "supplycost_c"]]


# --------------------------------------------------------------------------
# TPC-H Q13 shape: customer order-count distribution (q389)
# --------------------------------------------------------------------------

_Q13_SQL = """
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist FROM (
  SELECT c.c_custkey, CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
  FROM customer c LEFT JOIN orders o
    ON o.o_custkey = c.c_custkey AND o.o_orderpriority <> '4-NOT SPECIFIED'
  GROUP BY 1) t
GROUP BY c_count ORDER BY custdist DESC, c_count DESC
"""


@query("q389_custdist", sql=_Q13_SQL)
def q389_custdist(sf_dir: str):
    """TPC-H Q13 shape — the customer order-count DISTRIBUTION with a
    filter in the LEFT JOIN's ON clause (orders of one priority class
    don't count, but their customers still appear at c_count=0).
    Plan: the orders scan emits per-batch filtered custkey value_counts
    (combiner), ONE custkey-bucketed combine yields per-customer counts
    (customer-sized exchange); the count histogram is a second tiny
    combine; the zero bucket is total customers (a metadata-only
    parquet count) minus customers seen — the LEFT JOIN never
    materializes.  Output: (c_count, custdist) by custdist DESC."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["o_orderpriority"] != "4-NOT SPECIFIED"]
        vc = d["o_custkey"].value_counts()
        return pd.DataFrame({"custkey": vc.index.to_numpy(np.int64),
                             "cnt": vc.to_numpy(np.int64)})

    per_cust = bucketed_groupby(
        orders.map_batches(partial, batch_format="pandas"),
        ["custkey"],
        lambda df: df.groupby("custkey", as_index=False)["cnt"].sum(),
        n_buckets=8,
    ).to_pandas()

    hist = per_cust.groupby("cnt").size().reset_index(name="custdist")
    hist = hist.rename(columns={"cnt": "c_count"})
    zero = n_cust - len(per_cust)
    if zero > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({"c_count": [0], "custdist": [zero]})],
            ignore_index=True,
        )
    out = (
        hist.astype({"c_count": "int64", "custdist": "int64"})
        .sort_values(["custdist", "c_count"], ascending=[False, False])
        .reset_index(drop=True)
    )
    return out[["c_count", "custdist"]]


# --------------------------------------------------------------------------
# TPC-H Q20 shape: recency-concentrated suppliers (q390)
# --------------------------------------------------------------------------

_Q20_SQL = """
WITH pair AS (
  SELECT l_partkey AS partkey, l_suppkey AS suppkey,
         CAST(ROUND(SUM(l_quantity) * 100) AS BIGINT) AS qty_total_c,
         CAST(ROUND(SUM(CASE WHEN year(l_shipdate) = 1998
                        THEN l_quantity ELSE 0 END) * 100) AS BIGINT)
           AS qty_1998_c
  FROM lineitem GROUP BY 1, 2
)
SELECT s.s_name, n.n_name
FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE n.n_name = 'NATION_3'
  AND EXISTS (SELECT 1 FROM pair pr JOIN part p ON p.p_partkey = pr.partkey
              WHERE pr.suppkey = s.s_suppkey AND p.p_name LIKE 'small%'
                AND pr.qty_1998_c * 2 > pr.qty_total_c)
ORDER BY s_name
"""


@query("q390_excess_recency", sql=_Q20_SQL)
def q390_excess_recency(sf_dir: str):
    """TPC-H Q20 shape — the nested-aggregate semi-join: NATION_3
    suppliers having SOME 'small%' part whose 1998 shipped quantity
    exceeds half that (part, supplier) pair's lifetime quantity (the
    excess-stock/recency analog of Q20's availqty > 0.5 * yearly
    demand; no partsupp table in the testdata).  Plan: the part-name
    slice broadcasts; the fact scan filters and emits per-batch
    (partkey, suppkey, qty_total, qty_1998) SUM partials, ONE bucketed
    combine finishes the pair aggregate; the EXISTS collapses to a
    distinct-suppkey projection of the qualifying pairs (result-sized)
    intersected with the broadcast nation dimension on the driver."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    part = _read(sf_dir, "part", ["p_partkey", "p_name"]).to_pandas()
    small_pk = set(
        part.loc[part["p_name"].str.startswith("small"), "p_partkey"].astype(int)
    )
    pset_ref = ray.put(small_pk)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["l_partkey"].isin(ray.get(pset_ref))]
        if d.empty:
            return pd.DataFrame({"partkey": pd.Series([], dtype=np.int64),
                                 "suppkey": pd.Series([], dtype=np.int64),
                                 "qty_total": pd.Series([], dtype=np.float64),
                                 "qty_1998": pd.Series([], dtype=np.float64)})
        d = d.assign(
            qty_1998=d["l_quantity"].where(d["l_shipdate"].dt.year == 1998, 0.0)
        )
        g = d.groupby(["l_partkey", "l_suppkey"], as_index=False).agg(
            qty_total=("l_quantity", "sum"), qty_1998=("qty_1998", "sum")
        )
        return g.rename(columns={"l_partkey": "partkey", "l_suppkey": "suppkey"})

    pairs = bucketed_groupby(
        li.map_batches(partial, batch_format="pandas"),
        ["partkey", "suppkey"],
        lambda df: df.groupby(["partkey", "suppkey"], as_index=False)[
            ["qty_total", "qty_1998"]].sum(),
        n_buckets=8,
    ).to_pandas()
    qt = (pairs["qty_total"] * 100).round().astype(np.int64)
    q8 = (pairs["qty_1998"] * 100).round().astype(np.int64)
    qual = set(pairs.loc[q8 * 2 > qt, "suppkey"].astype(int))

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"]).to_pandas()
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nk = int(nat.loc[nat["n_name"] == "NATION_3", "n_nationkey"].iloc[0])
    hit = sup[(sup["s_nationkey"] == nk) & sup["s_suppkey"].isin(qual)].copy()
    hit["n_name"] = "NATION_3"
    out = hit.sort_values("s_name").reset_index(drop=True)
    return out[["s_name", "n_name"]]


# --------------------------------------------------------------------------
# Dominant principal component by integer power iteration (q391)
# --------------------------------------------------------------------------
# The embedding-curation primitive: the corpus's dominant variance axis
# (whitening / anisotropy audit for ANN indexes).  Exact integer pipeline:
# milli-quantized vectors, n^2-scaled covariance numerator C = n*G - S S^T,
# and bigint power iteration — no float drift anywhere, so the scalar twin
# reproduces it bit-for-bit.

_PCA_ITERS = 600
_PCA_BITS = 64

_PCA_SQL = (
    "SELECT dim, loading_ppm, lam_ppm FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/pca_sf0.01.parquet') ORDER BY dim"
)


def pca_power_twin(vecs) -> tuple[int, list[int]]:
    """Scalar pure-Python-int twin: (lam_ppm, loading_ppm per dim).

    vecs: iterable of equal-length int sequences (milli-quantized).
    Deterministic spec shared with q391: v0 = e_argmax(diag C) (lowest
    index on ties), _PCA_ITERS iterations of v <- C v renormalized by
    an arithmetic right-shift that caps entries at _PCA_BITS bits
    (exact, deterministic, keeps bigints bounded), sign fixed so the
    largest-|.| entry is positive (lowest index on ties), loadings
    floor-scaled against max |v|.
    """
    rows = [list(map(int, v)) for v in vecs]
    n, d = len(rows), len(rows[0])
    S = [sum(r[j] for r in rows) for j in range(d)]
    G = [[0] * d for _ in range(d)]
    for r in rows:
        for i in range(d):
            ri = r[i]
            if ri:
                Gi = G[i]
                for j in range(d):
                    Gi[j] += ri * r[j]
    C = [[n * G[i][j] - S[i] * S[j] for j in range(d)] for i in range(d)]
    start = max(range(d), key=lambda i: (C[i][i], -i))
    v = [0] * d
    v[start] = 1
    for _ in range(_PCA_ITERS):
        w = [sum(C[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            break
        shift = max(0, m.bit_length() - _PCA_BITS)
        v = [x >> shift for x in w]
    big = max(range(d), key=lambda i: (abs(v[i]), -i))
    if v[big] < 0:
        v = [-x for x in v]
    num = sum(v[i] * sum(C[i][j] * v[j] for j in range(d)) for i in range(d))
    den = sum(x * x for x in v)
    lam_ppm = num * 1_000_000 // den
    vmax = max(abs(x) for x in v)
    loadings = [
        (1 if x >= 0 else -1) * (abs(x) * 1_000_000 // vmax) for x in v
    ]
    return lam_ppm, loadings


@query("q391_pca_power", sql=_PCA_SQL)
def q391_pca_power(sf_dir: str):
    """Dominant principal component of the embedding corpus by EXACT
    integer power iteration — the variance-anisotropy audit behind
    whitening and ANN index planning.  Plan: each batch emits ONE
    partial (sum vector S_b, Gram matrix G_b = B^T B, count) — the
    classic covariance combiner; the driver sums block-count-sized
    partials, forms the n^2-scaled integer covariance numerator
    C = n*G - S S^T, and runs bigint power iteration (600 rounds,
    shift-renormalized to 64-bit entries — exact, bounded, no drift).  Milli-unit
    products stay < 2^53 so float64 matmul partials are exact; at the
    100 TB point swap the per-batch matmul to int64 accumulation and
    shard the (d x d) partial sum, the iteration itself is d-sized
    driver work either way.  Oracle: committed fixture from the
    INDEPENDENT scalar-loop twin (pca_power_twin).  Output per dim:
    (dim, loading_ppm, lam_ppm) with the eigenvalue Rayleigh quotient
    in ppm of the n^2-scaled covariance."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(t: pa.Table) -> pd.DataFrame:
        block = np.rint(
            np.asarray(t["embedding"].to_pylist(), dtype=np.float64) * 1000.0
        )
        g = block.T @ block          # exact: |x|<2^11, 500 rows, d=64
        s = block.sum(axis=0)
        return pd.DataFrame({
            "g": [g.astype(np.int64).ravel()],
            "s": [s.astype(np.int64)],
            "n": [np.int64(len(block))],
        })

    parts = emb.map_batches(partial, batch_format="pyarrow").to_pandas()
    d = int(round(len(parts["g"].iloc[0]) ** 0.5))
    G = np.zeros((d, d), dtype=object)
    S = np.zeros(d, dtype=object)
    n = 0
    for r in parts.itertuples():
        G = G + np.asarray(r.g, dtype=np.int64).reshape(d, d).astype(object)
        S = S + np.asarray(r.s, dtype=np.int64).astype(object)
        n += int(r.n)
    C = [[int(n * G[i][j] - S[i] * S[j]) for j in range(d)] for i in range(d)]
    start = max(range(d), key=lambda i: (C[i][i], -i))
    v = [0] * d
    v[start] = 1
    for _ in range(_PCA_ITERS):
        w = [sum(C[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            break
        shift = max(0, m.bit_length() - _PCA_BITS)
        v = [x >> shift for x in w]
    big = max(range(d), key=lambda i: (abs(v[i]), -i))
    if v[big] < 0:
        v = [-x for x in v]
    num = sum(v[i] * sum(C[i][j] * v[j] for j in range(d)) for i in range(d))
    den = sum(x * x for x in v)
    lam_ppm = num * 1_000_000 // den
    vmax = max(abs(x) for x in v)
    return pd.DataFrame({
        "dim": np.arange(d, dtype=np.int64),
        "loading_ppm": np.array(
            [(1 if x >= 0 else -1) * (abs(x) * 1_000_000 // vmax) for x in v],
            dtype=np.int64,
        ),
        "lam_ppm": np.full(d, int(lam_ppm), dtype=np.int64),
    })


# --------------------------------------------------------------------------
# Dynamic time warping between event-type daily series (q392)
# --------------------------------------------------------------------------
# The series-alignment primitive (template matching, drift-tolerant
# similarity) the lag-exact ACF (q361) and KS drift (q161) can't express.

_DTW_BAND = 7  # Sakoe-Chiba radius (days)

_DTW_SQL = (
    "SELECT type_a, type_b, dtw_cost, n_days FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/dtw_sf0.01.parquet') "
    "ORDER BY type_a, type_b"
)


def dtw_band_twin(a, b, band: int) -> int:
    """INDEPENDENT memoized-recursion DTW twin (|a|==|b|), |.|-cost,
    Sakoe-Chiba band; the main impl is the iterative rolling-array DP."""
    import sys
    from functools import lru_cache

    n = len(a)
    sys.setrecursionlimit(max(10_000, 4 * n * (2 * band + 2)))

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if abs(i - j) > band:
            return 1 << 62
        c = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return c
        best = 1 << 62
        if i > 0:
            best = min(best, rec(i - 1, j))
        if j > 0:
            best = min(best, rec(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1))
        return c + best

    out = rec(n - 1, n - 1)
    rec.cache_clear()
    return out


def _dtw_iter(a: np.ndarray, b: np.ndarray, band: int) -> int:
    """Iterative banded DP, rolling rows of width 2*band+1."""
    n = len(a)
    INF = 1 << 62
    prev = np.full(n, INF, dtype=object)
    for i in range(n):
        cur = np.full(n, INF, dtype=object)
        lo, hi = max(0, i - band), min(n - 1, i + band)
        for j in range(lo, hi + 1):
            c = abs(int(a[i]) - int(b[j]))
            if i == 0 and j == 0:
                cur[j] = c
                continue
            best = INF
            if i > 0 and prev[j] < best:
                best = prev[j]
            if j > 0 and cur[j - 1] < best:
                best = cur[j - 1]
            if i > 0 and j > 0 and prev[j - 1] < best:
                best = prev[j - 1]
            cur[j] = c + best
        prev = cur
    return int(prev[n - 1])


@query("q392_dtw_pairs", sql=_DTW_SQL)
def q392_dtw_pairs(sf_dir: str):
    """Banded dynamic-time-warping distance between every pair of
    event types' daily-volume SHAPES (per-mille-normalized counts on
    the shared zero-filled day grid, Sakoe-Chiba radius 7).  The
    drift-tolerant series-similarity primitive: low DTW = same traffic
    shape possibly time-shifted.  Plan: ONE (day x type)-sized
    aggregate built from per-batch value_counts partials (driver
    reduce — the q361 pattern); the O(n*band) DP runs per pair on the
    driver over day-count-sized series (type-pair-parallel map at page
    scale).  Oracle: committed fixture from the INDEPENDENT
    memoized-recursion twin (dtw_band_twin).  Output per unordered
    pair: (type_a, type_b, dtw_cost, n_days)."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("int64") // 86_400_000_000).astype(np.int64)
        vc = (
            pd.DataFrame({"day": day, "event_type": df["event_type"]})
            .groupby(["day", "event_type"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return vc

    parts = ev.map_batches(partial, batch_format="pandas").to_pandas()
    counts = parts.groupby(["day", "event_type"], as_index=False)["cnt"].sum()
    days = np.arange(counts["day"].min(), counts["day"].max() + 1)
    types = sorted(counts["event_type"].unique())
    series = {}
    for t in types:
        sub = counts[counts["event_type"] == t].set_index("day")["cnt"]
        grid = sub.reindex(days, fill_value=0).to_numpy(np.int64)
        total = int(grid.sum())
        series[t] = grid * 1000 // max(total, 1)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            rows.append((ta, tb,
                         _dtw_iter(series[ta], series[tb], _DTW_BAND),
                         len(days)))
    return pd.DataFrame(
        rows, columns=["type_a", "type_b", "dtw_cost", "n_days"]
    ).astype({"dtw_cost": "int64", "n_days": "int64"}).sort_values(
        ["type_a", "type_b"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# S-stemmer vocabulary-compression census (q393)
# --------------------------------------------------------------------------

_SSTEM_SQL = """
WITH tok AS (
  SELECT DISTINCT source, lower(t) AS token
  FROM documents, unnest(string_split(text, ' ')) AS u(t)
  WHERE length(t) > 0
), st AS (
  SELECT source, token,
         CASE
           WHEN token LIKE '%ies' AND token NOT LIKE '%eies'
                AND token NOT LIKE '%aies'
             THEN substr(token, 1, length(token) - 3) || 'y'
           WHEN token LIKE '%es' AND token NOT LIKE '%aes'
                AND token NOT LIKE '%ees' AND token NOT LIKE '%oes'
             THEN substr(token, 1, length(token) - 1)
           WHEN token LIKE '%s' AND token NOT LIKE '%us'
                AND token NOT LIKE '%ss'
             THEN substr(token, 1, length(token) - 1)
           ELSE token
         END AS stem
  FROM tok
)
SELECT source,
       CAST(COUNT(DISTINCT token) AS BIGINT) AS n_tokens,
       CAST(COUNT(DISTINCT stem) AS BIGINT)  AS n_stems,
       CAST((COUNT(DISTINCT token) - COUNT(DISTINCT stem)) * 1000000
            // COUNT(DISTINCT token) AS BIGINT) AS compress_ppm
FROM st GROUP BY source ORDER BY source
"""


def s_stem(tokens: pd.Series) -> pd.Series:
    """Harman's S-stemmer (1991), vectorized: the three-rule English
    plural conflation used by classic IR systems."""
    t = tokens
    ies = t.str.endswith("ies") & ~t.str.endswith("eies") & ~t.str.endswith("aies")
    es = (t.str.endswith("es") & ~t.str.endswith("aes")
          & ~t.str.endswith("ees") & ~t.str.endswith("oes"))
    ss = t.str.endswith("s") & ~t.str.endswith("us") & ~t.str.endswith("ss")
    out = t.copy()
    out = out.mask(ss & ~es & ~ies, t.str[:-1])
    out = out.mask(es & ~ies, t.str[:-1])
    out = out.mask(ies, t.str[:-3] + "y")
    return out


@query("q393_sstem_census", sql=_SSTEM_SQL)
def q393_sstem_census(sf_dir: str):
    """Vocabulary compression under Harman's S-stemmer, per source —
    how much plural conflation shrinks the index vocabulary (the
    cheap-stemming payoff audit; rule order ies > es > s with the
    classic exception lists).  Plan: per-batch DISTINCT (source,
    token) partials, ONE token-keyed bucketed distinct (the exchange
    carries distinct pairs, never raw token streams), the stem map is
    vectorized pandas str ops inside the combine, and per-source
    distinct counts finish in a source-sized second combine.  Output:
    (source, n_tokens, n_stems, compress_ppm)."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    docs = _read(sf_dir, "documents", ["source", "text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].str.split(" ")
        ex = df[["source"]].join(s.rename("token")).explode("token")
        ex = ex[ex["token"].str.len() > 0]
        ex["token"] = ex["token"].str.lower()
        return ex.drop_duplicates()

    distinct = bucketed_groupby(
        docs.map_batches(pairs, batch_format="pandas"),
        ["source", "token"],
        lambda df: df.drop_duplicates(),
        n_buckets=8,
    )

    def census(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(stem=s_stem(df["token"]))
        g = df.groupby("source")
        out = pd.DataFrame({
            "n_tokens": g["token"].nunique(),
            "n_stems": g["stem"].nunique(),
        }).reset_index()
        return out

    out = (
        bucketed_groupby(distinct, ["source"], census, n_buckets=4)
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_stems"] = out["n_stems"].astype("int64")
    out["compress_ppm"] = (
        (out["n_tokens"] - out["n_stems"]) * 1_000_000 // out["n_tokens"]
    ).astype("int64")
    return out[["source", "n_tokens", "n_stems", "compress_ppm"]]


# --------------------------------------------------------------------------
# Harris corner census over the image payload (q394)
# --------------------------------------------------------------------------

_HARRIS_SQL = (
    "SELECT fmt, n_images, sum_corner_px, max_resp FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/harris_sf0.01.parquet') ORDER BY fmt"
)


@query("q394_harris_corners", sql=_HARRIS_SQL)
def q394_harris_corners(sf_dir: str):
    """Harris corner census per format — the interest-point density
    gate (structured scenes score high, flat fills near zero), the
    cornerness complement to q283's edge orientations.  Exact integer
    response 20·det(M) − trace(M)² (k=0.05 scaled out) over box-summed
    Sobel products, all shifted-view numpy inside the actor pool
    (stages/images.py::HarrisCorners); two ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel
    nested-loop twin.  Output: (fmt, n_images, sum_corner_px,
    max_resp)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import HarrisCorners

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        HarrisCorners, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_corner_px", "max_resp"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_corner_px": g["n_corner_px"].sum(),
            "max_resp": g["max_resp"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_corner_px", alias_name="sum_corner_px"),
            Max("max_resp", alias_name="max_resp"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_corner_px", "max_resp"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_corner_px", "max_resp"]]


# --------------------------------------------------------------------------
# Voice-activity segmentation over the audio payload (q395)
# --------------------------------------------------------------------------

_VAD_SQL = (
    "SELECT fmt, n_clips, sum_frames, sum_active, max_run FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/vad_sf0.01.parquet') ORDER BY fmt"
)


@query("q395_voice_activity", sql=_VAD_SQL)
def q395_voice_activity(sf_dir: str):
    """Frame-level voice/tone activity census per audio format — WHERE
    the energy sits (20 ms frames, active iff frame energy beats the
    clip mean, exact integer cross-multiplication e_f * n_frames >
    total), plus the longest active run: the speech-span signal for
    audio curation that q37's global rms/zcr can't see.  Decode +
    framing stay in the actor pool (stages/av.py::VoiceActivity);
    three ints per clip shuffle.  Oracle: committed fixture from the
    INDEPENDENT scalar frame-walk twin.  Output: (fmt, n_clips,
    sum_frames, sum_active, max_run)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import VoiceActivity

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        VoiceActivity, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_frames", "n_active", "max_run"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "sum_frames": g["n_frames"].sum(),
            "sum_active": g["n_active"].sum(),
            "max_run": g["max_run"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("sum_frames", alias_name="sum_frames"),
            Sum("sum_active", alias_name="sum_active"),
            Max("max_run", alias_name="max_run"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "sum_frames", "sum_active", "max_run"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "sum_frames", "sum_active", "max_run"]]


# --------------------------------------------------------------------------
# Block-matching motion census over the video payload (q396)
# --------------------------------------------------------------------------

_MOTION_SQL = (
    "SELECT n_clips, n_pairs, n_blocks, n_moving, sum_sad FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/motion_sf0.01.parquet')"
)


@query("q396_motion_blocks", sql=_MOTION_SQL)
def q396_motion_blocks(sf_dir: str):
    """Block-matching motion census over the video payload — 4x4
    luminance blocks matched over ±2-px offsets between consecutive
    frames (min SAD, ties to the lexicographically smallest (dy, dx)):
    the pan/static discriminator that complements q387's cut detector
    (motion WITHIN shots vs deltas ACROSS them).  The 25 candidate
    SADs per pair are whole-array shifted-view reductions in the actor
    pool (stages/av.py::MotionBlocks); four ints per clip shuffle.
    Oracle: committed fixture from the INDEPENDENT scalar per-block
    twin.  Output: (n_clips, n_pairs, n_blocks, n_moving, sum_sad)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import MotionBlocks

    _, n_vid = _av_n(sf_dir)
    d = av_fixture(n=n_vid, seed=42)
    ds = ray.data.read_parquet(f"{d}/video.parquet", columns=["bytes"])
    scored = ds.map_batches(
        MotionBlocks, concurrency=2, batch_size=32, batch_format="pyarrow"
    ).select_columns(["n_pairs", "n_blocks", "n_moving", "sum_sad"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_clips": [len(df)],
            "n_pairs": [df["n_pairs"].sum()],
            "n_blocks": [df["n_blocks"].sum()],
            "n_moving": [df["n_moving"].sum()],
            "sum_sad": [df["sum_sad"].sum()],
        })

    parts = scored.map_batches(partial, batch_format="pandas").to_pandas()
    out = pd.DataFrame([parts.sum()]).astype("int64")
    return out[["n_clips", "n_pairs", "n_blocks", "n_moving", "sum_sad"]]


# --------------------------------------------------------------------------
# SSIM downsample-reconstruction audit over the image payload (q397)
# --------------------------------------------------------------------------

_SSIM_SQL = (
    "SELECT fmt, n_images, n_tiles, sum_ssim_ppm, min_ssim_ppm "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/ssim_sf0.01.parquet') ORDER BY fmt"
)


@query("q397_ssim_audit", sql=_SSIM_SQL)
def q397_ssim_audit(sf_dir: str):
    """Integer-exact SSIM audit of the 2x box-downsample -> nearest-
    upsample reconstruction, per format — the PERCEPTUAL complement to
    q364's absolute-error DownsampleLoss: SSIM normalizes out local
    mean/variance, so it scores structure retention rather than raw
    pixel drift.  Per 8x8 tile the SSIM rational is cleared of means
    via integer sums and finished exactly in Python ints (ppm scale
    exceeds int64); tile sums are whole-array numpy reductions inside
    the actor pool (stages/images.py::SsimAudit).  Three ints per
    image shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-tile scalar-loop twin.  Output: (fmt, n_images, n_tiles,
    sum_ssim_ppm, min_ssim_ppm)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import SsimAudit

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        SsimAudit, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_tiles": g["n_tiles"].sum(),
            "sum_ssim_ppm": g["sum_ssim_ppm"].sum(),
            "min_ssim_ppm": g["min_ssim_ppm"].min(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_tiles", alias_name="n_tiles"),
            Sum("sum_ssim_ppm", alias_name="sum_ssim_ppm"),
            Min("min_ssim_ppm", alias_name="min_ssim_ppm"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm"]]


# --------------------------------------------------------------------------
# Coarse template-match census over the image payload (q398)
# --------------------------------------------------------------------------

_TEMPLATE_SQL = (
    "SELECT fmt, n_images, min_ssd, sum_ssd, sum_y, sum_x "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/template_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q398_template_match", sql=_TEMPLATE_SQL)
def q398_template_match(sf_dir: str):
    """Stride-4 coarse template-match census per format: the minimum
    sum-of-squared-differences between a fixed seeded 8x8 template and
    each image's luminance plane over the stride-4 position grid — the
    coarse pass of hierarchical logo/watermark detection (a fleet-wide
    low min_ssd flags a recurring overlay).  The SSD map is 64
    shifted-strided-view accumulations — no per-position loop — in the
    actor pool (stages/images.py::TemplateMatch); ties break to the
    first position row-major.  Three ints per image shuffle.  Oracle:
    committed fixture from the INDEPENDENT per-position slice twin.
    Output: (fmt, n_images, min_ssd, sum_ssd, sum_y, sum_x)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import TemplateMatch

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        TemplateMatch, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "best_y", "best_x", "best_ssd"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "min_ssd": g["best_ssd"].min(),
            "sum_ssd": g["best_ssd"].sum(),
            "sum_y": g["best_y"].sum(),
            "sum_x": g["best_x"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Min("min_ssd", alias_name="min_ssd"),
            Sum("sum_ssd", alias_name="sum_ssd"),
            Sum("sum_y", alias_name="sum_y"),
            Sum("sum_x", alias_name="sum_x"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "min_ssd", "sum_ssd", "sum_y", "sum_x"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "min_ssd", "sum_ssd", "sum_y", "sum_x"]]


# --------------------------------------------------------------------------
# LBP uniform-texture census over the image payload (q399)
# --------------------------------------------------------------------------

_LBP_SQL = (
    "SELECT fmt, n_images, n_px, n_uniform, top_code, top_count "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/lbp_sf0.01.parquet') ORDER BY fmt"
)


@query("q399_lbp_texture", sql=_LBP_SQL)
def q399_lbp_texture(sf_dir: str):
    """8-neighbor local-binary-pattern texture census per format
    (Ojala et al.): per interior pixel an 8-bit code (bit i set iff
    neighbor_i >= center), uniform codes (<=2 circular transitions)
    counted as the texture-bearing share, plus the modal code fleet-
    wide (smallest code wins count ties).  The code plane is 8
    shifted-view compares OR-ed together + one bincount in the actor
    pool (stages/images.py::LbpTexture); per image only the 256-bin
    int histogram shuffles — pixels never leave the actor.  The final
    modal-code scan is a 256-element driver reduce over result-sized
    per-block partials.  Oracle: committed fixture from the
    INDEPENDENT per-pixel scalar walk with a bit-iteration uniformity
    twin.  Output: (fmt, n_images, n_px, n_uniform, top_code,
    top_count)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import LbpTexture

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        LbpTexture, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_px", "n_uniform", "hist"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["fmt", "n_px", "n_uniform"]).to_pandas()
        hist = np.asarray(batch["hist"].to_pylist(), dtype=np.int64)
        rows = []
        for fmt, idx in df.groupby("fmt").groups.items():
            sub = df.loc[idx]
            rows.append({
                "fmt": fmt,
                "n_images": len(sub),
                "n_px": int(sub["n_px"].sum()),
                "n_uniform": int(sub["n_uniform"].sum()),
                "hist": hist[np.asarray(idx)].sum(axis=0).tolist(),
            })
        return pd.DataFrame(rows)

    parts = scored.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for fmt, sub in parts.groupby("fmt"):
        h = np.asarray(sub["hist"].tolist(), dtype=np.int64).sum(axis=0)
        top_code = int(np.argmax(h))  # argmax ties -> smallest index
        rows.append((fmt, int(sub["n_images"].sum()), int(sub["n_px"].sum()),
                     int(sub["n_uniform"].sum()), top_code, int(h[top_code])))
    out = pd.DataFrame(
        rows, columns=["fmt", "n_images", "n_px", "n_uniform",
                       "top_code", "top_count"],
    ).sort_values("fmt").reset_index(drop=True)
    for c in ("n_images", "n_px", "n_uniform", "top_code", "top_count"):
        out[c] = out[c].astype("int64")
    return out


# --------------------------------------------------------------------------
# GLCM co-occurrence texture census over the image payload (q400)
# --------------------------------------------------------------------------

_GLCM_SQL = (
    "SELECT fmt, n_images, n_pairs, sum_contrast, sum_energy, "
    "sum_homog_ppm FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/glcm_sf0.01.parquet') ORDER BY fmt"
)


@query("q400_glcm_texture", sql=_GLCM_SQL)
def q400_glcm_texture(sf_dir: str):
    """Gray-level co-occurrence (Haralick) texture census per format —
    second-order texture that q399's LBP can't see: LBP ranks each
    pixel against its ring, the GLCM counts how often gray-level
    PAIRS co-occur at offsets (0,1)/(1,0), separating coarse from
    fine texture at equal edge density.  16-level quantized
    luminance, one packed-code bincount per offset, exact integer
    contrast / energy / per-cell-floored homogeneity-ppm
    (stages/images.py::GlcmTexture); four ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel
    dict-walk twin.  Output: (fmt, n_images, n_pairs, sum_contrast,
    sum_energy, sum_homog_ppm)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import GlcmTexture

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        GlcmTexture, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_pairs", "contrast", "energy", "homog_ppm"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_pairs": g["n_pairs"].sum(),
            "sum_contrast": g["contrast"].sum(),
            "sum_energy": g["energy"].sum(),
            "sum_homog_ppm": g["homog_ppm"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_pairs", alias_name="n_pairs"),
            Sum("sum_contrast", alias_name="sum_contrast"),
            Sum("sum_energy", alias_name="sum_energy"),
            Sum("sum_homog_ppm", alias_name="sum_homog_ppm"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_pairs", "sum_contrast", "sum_energy",
              "sum_homog_ppm"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_pairs", "sum_contrast",
                "sum_energy", "sum_homog_ppm"]]


# --------------------------------------------------------------------------
# Exact OLS by normal equations over lineitem (q401)
# --------------------------------------------------------------------------

_OLS_SQL = (
    "SELECT n, b0_e9, b1_e9, b2_e9, b3_e9 FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/ols_sf0.01.parquet')"
)


@query("q401_ols_normal_eq", sql=_OLS_SQL)
def q401_ols_normal_eq(sf_dir: str):
    """EXACT multivariate least squares by normal equations — price
    (cents) regressed on quantity, discount (c) and tax (c): the
    canonical distributed-regression shape (each batch emits one
    X^T X / X^T y partial — the covariance combiner, same plan as
    q391's PCA), with the 4x4 solve done in Fraction arithmetic on
    the driver so NO float enters anywhere: coefficients are exact
    rationals, floored at 1e9 scale.  Gaussian elimination with
    first-nonzero pivoting here vs the fixture twin's Cramer-rule
    cofactor determinants — two independent exact solvers must agree
    bit-for-bit.  Partial products stay < 2^53 (|y|<=1e7 c, |x|<=100,
    4096-row batches) so the int64 matmul is exact.  Output: (n,
    b0_e9, b1_e9, b2_e9, b3_e9)."""
    from fractions import Fraction
    import math

    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount", "l_tax"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        y = np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        x1 = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        x2 = np.round(df["l_discount"].to_numpy() * 100).astype(np.int64)
        x3 = np.round(df["l_tax"].to_numpy() * 100).astype(np.int64)
        X = np.stack([np.ones_like(x1), x1, x2, x3], axis=1)
        return pd.DataFrame({
            "a": [(X.T @ X).ravel()],
            "b": [X.T @ y],
            "n": [np.int64(len(y))],
        })

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    A = [[0] * 4 for _ in range(4)]
    b = [0] * 4
    n = 0
    for r in parts.itertuples():
        a = np.asarray(r.a, dtype=np.int64).reshape(4, 4)
        for i in range(4):
            b[i] += int(r.b[i])
            for j in range(4):
                A[i][j] += int(a[i][j])
        n += int(r.n)

    # exact Gaussian elimination, first-nonzero pivot
    M = [[Fraction(A[i][j]) for j in range(4)] + [Fraction(b[i])]
         for i in range(4)]
    for col in range(4):
        piv = next(r for r in range(col, 4) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(4):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    betas = [M[i][4] for i in range(4)]
    row = {"n": n}
    for i, bt in enumerate(betas):
        row[f"b{i}_e9"] = math.floor(bt * 10**9)
    out = pd.DataFrame([row]).astype("int64")
    return out[["n", "b0_e9", "b1_e9", "b2_e9", "b3_e9"]]


# --------------------------------------------------------------------------
# Walsh-Hadamard sequency census over the audio payload (q402)
# --------------------------------------------------------------------------

_WHT_SQL = (
    "SELECT fmt, n_clips, n_frames, low_energy, high_energy, "
    "total_energy FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/wht_sf0.01.parquet') ORDER BY fmt"
)


@query("q402_walsh_spectrum", sql=_WHT_SQL)
def q402_walsh_spectrum(sf_dir: str):
    """Walsh-Hadamard sequency-band census per audio format — an
    EXACT-integer spectral split (±1 basis, so no trigonometric
    rounding, unlike a DFT): low natural-order coefficients carry
    envelope structure, high ones rapid alternation — the
    tonal-vs-noisy discriminator complementing q386's pitch lag.
    Per 64-sample frame the order-64 FWHT runs as 6 vectorized
    butterfly rounds over the whole frame block in the actor pool
    (stages/av.py::WalshSpectrum); Parseval (Σw² = 64Σx²) is a free
    internal check.  Four ints per clip shuffle.  Oracle: committed
    fixture from the INDEPENDENT explicit Sylvester-matrix-multiply
    twin.  Output: (fmt, n_clips, n_frames, low_energy, high_energy,
    total_energy)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import WalshSpectrum

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        WalshSpectrum, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_frames", "low_energy", "high_energy",
                      "total_energy"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_frames": g["n_frames"].sum(),
            "low_energy": g["low_energy"].sum(),
            "high_energy": g["high_energy"].sum(),
            "total_energy": g["total_energy"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_frames", alias_name="n_frames"),
            Sum("low_energy", alias_name="low_energy"),
            Sum("high_energy", alias_name="high_energy"),
            Sum("total_energy", alias_name="total_energy"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_frames", "low_energy", "high_energy",
              "total_energy"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_frames", "low_energy", "high_energy",
                "total_energy"]]


# --------------------------------------------------------------------------
# Four-direction Hough line census over the image payload (q403)
# --------------------------------------------------------------------------

_HOUGH_SQL = (
    "SELECT fmt, n_images, sum_edge_px, sum_best_votes, max_best_votes, "
    "n_axis, n_diag FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/hough_sf0.01.parquet') ORDER BY fmt"
)


@query("q403_hough_lines", sql=_HOUGH_SQL)
def q403_hough_lines(sf_dir: str):
    """Exact-integer Hough line census per format over the four
    lattice directions (vertical / horizontal / both diagonals — the
    only angles whose normal form stays integral, so no trigonometric
    rounding): the layout detector that separates ruled/framed
    content (tables, scans, UI chrome) from diffuse natural scenes,
    complementing q394's point-feature census.  Per image the votes
    are one bincount of each integer rho plane over the Sobel edge
    mask (stages/images.py::HoughLines); four ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel
    dict-vote twin.  Output: (fmt, n_images, sum_edge_px,
    sum_best_votes, max_best_votes, n_axis, n_diag)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import HoughLines

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        HoughLines, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_edge_px", "best_dir", "best_votes"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_edge_px": g["n_edge_px"].sum(),
            "sum_best_votes": g["best_votes"].sum(),
            "max_best_votes": g["best_votes"].max(),
            "n_axis": g["best_dir"].agg(lambda s: int(s.isin([0, 1]).sum())),
            "n_diag": g["best_dir"].agg(lambda s: int(s.isin([2, 3]).sum())),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_edge_px", alias_name="sum_edge_px"),
            Sum("sum_best_votes", alias_name="sum_best_votes"),
            Max("max_best_votes", alias_name="max_best_votes"),
            Sum("n_axis", alias_name="n_axis"),
            Sum("n_diag", alias_name="n_diag"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_edge_px", "sum_best_votes",
              "max_best_votes", "n_axis", "n_diag"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_edge_px", "sum_best_votes",
                "max_best_votes", "n_axis", "n_diag"]]


# --------------------------------------------------------------------------
# CUBE grouping-sets aggregate over orders (q404)
# --------------------------------------------------------------------------

_CUBE_SQL = """
SELECT COALESCE(o_orderpriority, 'ALL') AS priority,
       COALESCE(o_orderstatus, 'ALL')  AS status,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS total_c
FROM orders
GROUP BY CUBE (o_orderpriority, o_orderstatus)
ORDER BY priority, status
"""


@query("q404_cube_orders", sql=_CUBE_SQL)
def q404_cube_orders(sf_dir: str):
    """CUBE grouping-sets rollup over orders — all four grouping
    levels (priority x status, priority, status, grand total) from
    ONE exchange: per-batch partials pre-aggregate only the FINEST
    (priority, status) cells, the shuffle carries ~15 cell rows per
    block, and the three coarser levels are derived from the finest
    cells in a result-sized driver pass — the classic way a cube is
    computed at scale (never one shuffle per grouping set).  'ALL' is
    the rollup marker (matches the oracle's COALESCE).  Output:
    (priority, status, n_orders, total_c)."""
    orders = _read(sf_dir, "orders",
                   ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            total_c=np.round(df["o_totalprice"].to_numpy() * 100).astype(
                np.int64)
        )
        g = df.groupby(["o_orderpriority", "o_orderstatus"])
        out = pd.DataFrame({
            "n_orders": g.size(),
            "total_c": g["total_c"].sum(),
        }).reset_index()
        return out.rename(columns={"o_orderpriority": "priority",
                                   "o_orderstatus": "status"})

    fine = (
        orders.map_batches(partial, batch_format="pandas")
        .groupby(["priority", "status"])
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_c", alias_name="total_c"),
        )
        .to_pandas()
    )
    levels = [fine]
    for keys in (["priority"], ["status"], []):
        if keys:
            lv = fine.groupby(keys, as_index=False)[
                ["n_orders", "total_c"]].sum()
        else:
            lv = pd.DataFrame([{
                "n_orders": fine["n_orders"].sum(),
                "total_c": fine["total_c"].sum(),
            }])
        for missing in ("priority", "status"):
            if missing not in lv.columns:
                lv[missing] = "ALL"
        levels.append(lv[["priority", "status", "n_orders", "total_c"]])
    out = (
        pd.concat(levels, ignore_index=True)
        .sort_values(["priority", "status"])
        .reset_index(drop=True)
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_c"] = out["total_c"].astype("int64")
    return out[["priority", "status", "n_orders", "total_c"]]


# --------------------------------------------------------------------------
# Soundex phonetic-key census over documents (q405)
# --------------------------------------------------------------------------

_SOUNDEX_SQL = (
    "SELECT source, n_tokens, n_keys, top_key, top_count "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/soundex_sf0.01.parquet') "
    "ORDER BY source"
)


@query("q405_soundex_census", sql=_SOUNDEX_SQL)
def q405_soundex_census(sf_dir: str):
    """American-Soundex phonetic-key census per source — the fuzzy
    record-linkage blocking audit (how hard does the vocabulary
    collapse under phonetic hashing, and which key is the heaviest
    blocking bucket): complements q202's record linkage and q277's
    edit-distance SymSpell with the classic phonetic blocking key.
    Plan: per-batch DISTINCT (source, token) partials (alpha tokens,
    len>=2), ONE bucketed distinct over the pair, the Soundex map is
    vectorized pandas str.translate + regex run-collapse
    (functions/phonetic.py::soundex_series), then a (source,
    key)-level count exchange — the corpus text never shuffles twice.
    Tie on top_count breaks to the smallest key.  Oracle: committed
    fixture from the INDEPENDENT per-letter state-machine twin.
    Output: (source, n_tokens, n_keys, top_key, top_count)."""
    from texrex_ray.functions.phonetic import soundex_series
    from texrex_ray.ops.aggregate import bucketed_groupby

    docs = _read(sf_dir, "documents", ["source", "text"])

    def pairs(t: pa.Table) -> pd.DataFrame:
        rows = []
        for src, text in zip(t["source"].to_pylist(),
                             t["text"].to_pylist()):
            for tok in set(_TOKEN_RE.findall((text or "").lower())):
                if len(tok) >= 2:
                    rows.append((src, tok))
        return pd.DataFrame(rows, columns=["source", "token"]
                            ).drop_duplicates()

    distinct = bucketed_groupby(
        docs.map_batches(pairs, batch_format="pyarrow"),
        ["source", "token"],
        lambda df: df.drop_duplicates(),
        n_buckets=8,
    )

    def key_counts(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(key=soundex_series(df["token"]))
        g = df.groupby(["source", "key"])
        return pd.DataFrame({"pn": g.size()}).reset_index()

    per_key = (
        distinct.map_batches(key_counts, batch_format="pandas")
        .groupby(["source", "key"])
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    rows = []
    for src, sub in per_key.groupby("source"):
        sub = sub.sort_values(["n", "key"], ascending=[False, True])
        rows.append((src, int(sub["n"].sum()), len(sub),
                     sub["key"].iloc[0], int(sub["n"].iloc[0])))
    out = pd.DataFrame(rows, columns=["source", "n_tokens", "n_keys",
                                      "top_key", "top_count"]
                       ).sort_values("source").reset_index(drop=True)
    for c in ("n_tokens", "n_keys", "top_count"):
        out[c] = out[c].astype("int64")
    return out


# --------------------------------------------------------------------------
# Scaling-cuckoo filter FPR audit (q406)
# --------------------------------------------------------------------------

_CUCKOO_AUDIT_SQL = """
SELECT n_keys, n_added, n_tables, total_slots, used_slots,
       n_probes, n_fp, fpr_ppm
FROM read_parquet('/root/repo/tests/fixtures/oracle/cuckoo_audit_sf0.01.parquet')
"""

CUCKOO_AUDIT_CAP = 4096
CUCKOO_AUDIT_CHUNK = 1024
CUCKOO_AUDIT_PROBES = 50_000


@query("q406_cuckoo_fpr_audit", sql=_CUCKOO_AUDIT_SQL)
def q406_cuckoo_fpr_audit(sf_dir: str):
    """Measured false-positive rate of the URL-seen ScalingCuckoo
    (state/cuckoo.py — the deletable alternative to q288's Bloom)
    against a disjoint probe set: a cuckoo filter stores 16-bit
    fingerprints in 2 partner buckets x 4 slots, so its FPR is
    ~ 2·tables·bucket_size / 2^16 — the audit that justifies choosing
    cuckoo (deletions, better locality) vs Bloom per frontier shard.
    Build is deterministic driver work (sorted keys, fixed chunks,
    LCG eviction — the engine's real filters are per-shard); the 50k
    probe runs distributed with the snapshot broadcast ONCE via
    ray.put.  Oracle: committed fixture from the INDEPENDENT pure-
    Python list-of-lists cuckoo twin (no numpy).  Output: one audit
    row (n_keys, n_added, n_tables, total_slots, used_slots,
    n_probes, n_fp, fpr_ppm)."""
    from texrex_ray.state.cuckoo import ScalingCuckoo

    orders = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    keys = [f"c:{k}" for k in np.sort(orders["o_orderkey"].to_numpy())]
    ck = ScalingCuckoo(initial_capacity=CUCKOO_AUDIT_CAP, error_rate=0.01)
    n_added = 0
    for i in range(0, len(keys), CUCKOO_AUDIT_CHUNK):
        n_added += int(ck.add_if_new(keys[i:i + CUCKOO_AUDIT_CHUNK]).sum())
    snap_ref = ray.put(ck.snapshot())

    def probe(t: pa.Table) -> pa.Table:
        c = ScalingCuckoo.restore(ray.get(snap_ref))
        ids = t["id"].to_numpy(zero_copy_only=False)
        hit = c.contains_many([f"x:{i}" for i in ids])
        return pa.table({"fp": pa.array([int(hit.sum())], pa.int64())})

    n_fp = int(
        ray.data.range(CUCKOO_AUDIT_PROBES)
        .map_batches(probe, batch_format="pyarrow", batch_size=8192)
        .sum("fp")
    )
    return pd.DataFrame({
        "n_keys": [len(keys)],
        "n_added": [n_added],
        "n_tables": [len(ck.segments)],
        "total_slots": [sum(t.slots.size for t in ck.segments)],
        "used_slots": [sum(t.count for t in ck.segments)],
        "n_probes": [CUCKOO_AUDIT_PROBES],
        "n_fp": [n_fp],
        "fpr_ppm": [n_fp * 1_000_000 // CUCKOO_AUDIT_PROBES],
    }).astype("int64")


# --------------------------------------------------------------------------
# G.711 mu-law companding audit over the audio payload (q407)
# --------------------------------------------------------------------------

_MULAW_SQL = (
    "SELECT fmt, n_clips, n_samples, sse, max_err FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/mulaw_sf0.01.parquet') ORDER BY fmt"
)


@query("q407_mulaw_audit", sql=_MULAW_SQL)
def q407_mulaw_audit(sf_dir: str):
    """G.711 mu-law companding round-trip audit per audio format —
    the logarithmic 8-bit telephony codec (bias + segment exponent +
    4-bit mantissa, ALL integer bit arithmetic by specification):
    complements q371's linear int8 quantization with the codec that
    keeps RELATIVE precision (16 codes per octave), so the exact SSE
    census separates quiet clips (near-lossless) from hot ones.
    Encode/decode are whole-array numpy in the actor pool
    (stages/av.py::MuLawAudit); three ints per clip shuffle.  Oracle:
    committed fixture from the INDEPENDENT per-sample scalar
    segment-walk twin.  Output: (fmt, n_clips, n_samples, sse,
    max_err)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import MuLawAudit

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        MuLawAudit, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_samples", "sse", "max_err"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_samples": g["n_samples"].sum(),
            "sse": g["sse"].sum(),
            "max_err": g["max_err"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_samples", alias_name="n_samples"),
            Sum("sse", alias_name="sse"),
            Max("max_err", alias_name="max_err"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_samples", "sse", "max_err"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_samples", "sse", "max_err"]]


# --------------------------------------------------------------------------
# Bayer demosaic round-trip audit over the image payload (q408)
# --------------------------------------------------------------------------

_BAYER_SQL = (
    "SELECT fmt, n_images, n_px, sse_r, sse_g, sse_b, max_err "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/bayer_sf0.01.parquet') ORDER BY fmt"
)


@query("q408_bayer_audit", sql=_BAYER_SQL)
def q408_bayer_audit(sf_dir: str):
    """RGGB Bayer mosaic + integer bilinear demosaic round-trip audit
    per format — the sensor-pipeline fidelity census: sample RGB onto
    the color-filter grid, reconstruct missing channels by the classic
    2-/4-neighbor integer means, and measure exact per-channel SSE
    over the interior.  Flat fills and grayscale ramps reconstruct
    perfectly; chroma edges alias — demosaic stress separates graphics
    from photographic content.  Parity-slice mosaic assembly +
    shifted-view reconstruction (np.select over four parity classes,
    no per-pixel loop) in the actor pool
    (stages/images.py::BayerAudit); five ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel scalar
    twin.  Output: (fmt, n_images, n_px, sse_r, sse_g, sse_b,
    max_err)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import BayerAudit

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        BayerAudit, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_px", "sse_r", "sse_g", "sse_b", "max_err"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_px": g["n_px"].sum(),
            "sse_r": g["sse_r"].sum(),
            "sse_g": g["sse_g"].sum(),
            "sse_b": g["sse_b"].sum(),
            "max_err": g["max_err"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_px", alias_name="n_px"),
            Sum("sse_r", alias_name="sse_r"),
            Sum("sse_g", alias_name="sse_g"),
            Sum("sse_b", alias_name="sse_b"),
            Max("max_err", alias_name="max_err"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_px", "sse_r", "sse_g", "sse_b", "max_err"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_px", "sse_r", "sse_g", "sse_b",
                "max_err"]]


# --------------------------------------------------------------------------
# Haar rectangle-feature census over the image payload (q409)
# --------------------------------------------------------------------------

_HAAR_SQL = (
    "SELECT fmt, n_images, n_win2, max_h2, n_win3, max_v3 "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/haar_sf0.01.parquet') ORDER BY fmt"
)


@query("q409_haar_features", sql=_HAAR_SQL)
def q409_haar_features(sf_dir: str):
    """Viola-Jones-style Haar rectangle-feature census per format —
    BLOCK-contrast structure (banners, split layouts, letterboxing)
    that q394's corners and q403's thin lines can't see: the max
    2-rect horizontal and 3-rect vertical responses over every
    position via ONE integral image (each window sum is 4 taps,
    whole-grid shifted views — stages/images.py::HaarFeatures).
    Exact integers; four ints per image shuffle.  Oracle: committed
    fixture from the INDEPENDENT per-window direct-slice-sum twin
    (no integral image).  Output: (fmt, n_images, n_win2, max_h2,
    n_win3, max_v3)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import HaarFeatures

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        HaarFeatures, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_win2", "max_h2", "n_win3", "max_v3"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_win2": g["n_win2"].sum(),
            "max_h2": g["max_h2"].max(),
            "n_win3": g["n_win3"].sum(),
            "max_v3": g["max_v3"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_win2", alias_name="n_win2"),
            Max("max_h2", alias_name="max_h2"),
            Sum("n_win3", alias_name="n_win3"),
            Max("max_v3", alias_name="max_v3"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_win2", "max_h2", "n_win3", "max_v3"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_win2", "max_h2", "n_win3", "max_v3"]]


# --------------------------------------------------------------------------
# Grouped modal user per event type (q410)
# --------------------------------------------------------------------------

_MODE_SQL = """
SELECT event_type,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(n_users AS BIGINT) AS n_users,
       CAST(top_user AS BIGINT) AS top_user,
       CAST(top_n AS BIGINT) AS top_n
FROM (
    SELECT event_type, user_id AS top_user, n AS top_n,
           SUM(n) OVER (PARTITION BY event_type) AS n_events,
           COUNT(*) OVER (PARTITION BY event_type) AS n_users,
           ROW_NUMBER() OVER (PARTITION BY event_type
                              ORDER BY n DESC, user_id) AS rn
    FROM (
        SELECT event_type, user_id, COUNT(*) AS n
        FROM events GROUP BY event_type, user_id
    )
)
WHERE rn = 1
ORDER BY event_type
"""


@query("q410_grouped_mode", sql=_MODE_SQL)
def q410_grouped_mode(sf_dir: str):
    """Grouped MODE with deterministic tie-break — the heaviest user
    per event type (smallest user_id wins count ties): the
    hot-key-discovery primitive behind salting decisions (q374) and
    per-entity rate limits.  Plan: per-batch (event_type, user_id)
    count partials — the combiner — ONE (type, user)-keyed exchange,
    then the mode scan runs on the type x user result table
    (result-sized driver work).  Oracle: pure SQL (inner GROUP BY +
    arg_min over negated counts, which encodes the same smallest-id
    tie-break).  Output: (event_type, n_events, n_users, top_user,
    top_n)."""
    events = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "user_id"])
        return pd.DataFrame({"pn": g.size()}).reset_index()

    from texrex_ray.ops.aggregate import bucketed_groupby

    n_ev = events.count()  # metadata-only on parquet
    per_user = bucketed_groupby(
        events.map_batches(partial, batch_format="pandas"),
        ["event_type", "user_id"],
        lambda g: g.groupby(["event_type", "user_id"], as_index=False)["pn"]
        .sum().rename(columns={"pn": "n"}),
        expected_rows=n_ev,
    ).to_pandas()
    rows = []
    for et, sub in per_user.groupby("event_type"):
        sub = sub.sort_values(["n", "user_id"], ascending=[False, True])
        rows.append((et, int(sub["n"].sum()), len(sub),
                     int(sub["user_id"].iloc[0]), int(sub["n"].iloc[0])))
    out = pd.DataFrame(rows, columns=["event_type", "n_events", "n_users",
                                      "top_user", "top_n"]
                       ).sort_values("event_type").reset_index(drop=True)
    for c in ("n_events", "n_users", "top_user", "top_n"):
        out[c] = out[c].astype("int64")
    return out


# --------------------------------------------------------------------------
# Exposure-flicker census over the video payload (q411)
# --------------------------------------------------------------------------

_FLICKER_SQL = (
    "SELECT fmt, n_clips, n_frames, n_jumps, max_mono_run, max_range_s "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/flicker_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q411_exposure_flicker", sql=_FLICKER_SQL)
def q411_exposure_flicker(sf_dir: str):
    """Global exposure-stability census per video format — frame
    brightness SUMS (never divided, exact): where q387's shot
    detector sees per-pixel CONTENT change, this sees global exposure
    drift (auto-exposure hunting, strobing, fades) even under static
    content.  Flicker iff |ΔS| > JUMP_T·n_px in integers; plus the
    longest strictly-increasing run (fade-in) and the S range.
    Decode + sums in the actor pool (stages/av.py::ExposureFlicker);
    four ints per clip shuffle.  Oracle: committed fixture from the
    INDEPENDENT per-pixel scalar-sum twin.  Output: (fmt, n_clips,
    n_frames, n_jumps, max_mono_run, max_range_s)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import ExposureFlicker

    _, n_vid = _av_n(sf_dir)
    d = av_fixture(n=n_vid, seed=42)
    ds = ray.data.read_parquet(f"{d}/video.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        ExposureFlicker, concurrency=2, batch_size=32, batch_format="pyarrow"
    ).select_columns(["fmt", "n_frames", "n_jumps", "max_mono_run",
                      "range_s"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_frames": g["n_frames"].sum(),
            "n_jumps": g["n_jumps"].sum(),
            "max_mono_run": g["max_mono_run"].max(),
            "max_range_s": g["range_s"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_frames", alias_name="n_frames"),
            Sum("n_jumps", alias_name="n_jumps"),
            Max("max_mono_run", alias_name="max_mono_run"),
            Max("max_range_s", alias_name="max_range_s"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_frames", "n_jumps", "max_mono_run",
              "max_range_s"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_frames", "n_jumps", "max_mono_run",
                "max_range_s"]]


# --------------------------------------------------------------------------
# Zhang-Suen skeleton census over the image payload (q412)
# --------------------------------------------------------------------------

_SKEL_SQL = (
    "SELECT fmt, n_images, sum_fg, sum_skel, max_iter FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/skeleton_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q412_skeleton_census", sql=_SKEL_SQL)
def q412_skeleton_census(sf_dir: str):
    """Zhang-Suen thinning census per format — Otsu-binarize (exact
    integer between-class-variance argmax, minority-side foreground)
    then iteratively peel to the 1-px skeleton: line art and glyphs
    keep most foreground as skeleton, solid blobs collapse — a shape-
    complexity gate orthogonal to q372's blob size and q344's
    distance transform.  Each subiteration is ONE whole-array
    shifted-view pass (stages/images.py::SkeletonCensus); three ints
    per image shuffle.  Oracle: committed fixture from the
    INDEPENDENT sparse coordinate-SET twin (per-pixel rule walk, no
    arrays).  Output: (fmt, n_images, sum_fg, sum_skel, max_iter)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import SkeletonCensus

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        SkeletonCensus, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_fg", "n_skel", "n_iter"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_fg": g["n_fg"].sum(),
            "sum_skel": g["n_skel"].sum(),
            "max_iter": g["n_iter"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_fg", alias_name="sum_fg"),
            Sum("sum_skel", alias_name="sum_skel"),
            Max("max_iter", alias_name="max_iter"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_fg", "sum_skel", "max_iter"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_fg", "sum_skel", "max_iter"]]


# --------------------------------------------------------------------------
# Colorfulness opponent-channel census over the image payload (q413)
# --------------------------------------------------------------------------

_COLORFUL_SQL = (
    "SELECT fmt, n_images, n_px, sum_rg, sum_rg2, sum_yb, sum_yb2 "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/colorfulness_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q413_colorfulness", sql=_COLORFUL_SQL)
def q413_colorfulness(sf_dir: str):
    """Hasler-Süsstrunk-style colorfulness census per format in EXACT
    integer moments — opponent channels rg = R−G and yb = (R+G)//2 − B
    emitted as raw first/second moments (no square root enters, so the
    oracle compares exactly; the float 'colorfulness' score is one
    downstream expression away): grayscale content zeroes all four
    sums, saturated graphics blow up the second moments — the cheap
    chroma gate before any palette or dedup work.  Whole-array numpy
    in the actor pool (stages/images.py::Colorfulness); five ints per
    image shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-pixel scalar twin.  Output: (fmt, n_images, n_px, sum_rg,
    sum_rg2, sum_yb, sum_yb2)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import Colorfulness

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        Colorfulness, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_px", "sum_rg", "sum_rg2", "sum_yb",
                      "sum_yb2"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        out = pd.DataFrame({"n_images": g.size()})
        for c in ("n_px", "sum_rg", "sum_rg2", "sum_yb", "sum_yb2"):
            out[c] = g[c].sum()
        return out.reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_px", alias_name="n_px"),
            Sum("sum_rg", alias_name="sum_rg"),
            Sum("sum_rg2", alias_name="sum_rg2"),
            Sum("sum_yb", alias_name="sum_yb"),
            Sum("sum_yb2", alias_name="sum_yb2"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_px", "sum_rg", "sum_rg2", "sum_yb",
              "sum_yb2"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_px", "sum_rg", "sum_rg2",
                "sum_yb", "sum_yb2"]]


# --------------------------------------------------------------------------
# Pareto / ABC revenue-concentration census over orders (q414)
# --------------------------------------------------------------------------

_PARETO_SQL = """
WITH cust AS (
    SELECT o_custkey,
           SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS r
    FROM orders GROUP BY o_custkey
), tot AS (
    SELECT SUM(r) AS t, COUNT(*) AS n FROM cust
), ranked AS (
    SELECT r,
           SUM(r) OVER (ORDER BY r DESC, o_custkey) AS cum,
           ROW_NUMBER() OVER (ORDER BY r DESC, o_custkey) AS rn
    FROM cust
)
SELECT CAST(tot.n AS BIGINT) AS n_customers,
       CAST(tot.t AS BIGINT) AS total_c,
       CAST((SELECT MIN(rn) FROM ranked WHERE cum * 100 >= 50 * tot.t)
            AS BIGINT) AS n50,
       CAST((SELECT MIN(rn) FROM ranked WHERE cum * 100 >= 80 * tot.t)
            AS BIGINT) AS n80,
       CAST((SELECT MIN(rn) FROM ranked WHERE cum * 100 >= 95 * tot.t)
            AS BIGINT) AS n95,
       CAST((SELECT MAX(r) FROM ranked) * 1000000 // tot.t AS BIGINT)
           AS top_share_ppm
FROM tot
"""


@query("q414_pareto_revenue", sql=_PARETO_SQL)
def q414_pareto_revenue(sf_dir: str):
    """Pareto / ABC revenue-concentration census — the minimum number
    of customers covering 50 / 80 / 95 % of total revenue, plus the
    single-customer top share (ppm): the skew audit behind hot-key
    salting budgets and account-tiering.  Plan: per-batch per-customer
    cents partials (combiner), ONE customer-keyed exchange, then the
    sort + prefix scan runs on the per-customer aggregate
    (customer-count-sized driver work; at page scale swap the finish
    to ds.sort + a two-pass distributed prefix scan like q341/q353 —
    the exchange stays identical).  Coverage compares in integers:
    cum·100 ≥ p·total.  Ties on equal revenue break to the smaller
    custkey on both sides.  Output: one row (n_customers, total_c,
    n50, n80, n95, top_share_ppm)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            r=np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64))
        g = df.groupby("o_custkey")
        return pd.DataFrame({"pr": g["r"].sum()}).reset_index()

    from texrex_ray.ops.aggregate import bucketed_groupby

    n_orders = orders.count()  # metadata-only on parquet
    cust = (
        bucketed_groupby(
            orders.map_batches(partial, batch_format="pandas"),
            "o_custkey",
            lambda g: g.groupby("o_custkey", as_index=False)["pr"].sum()
            .rename(columns={"pr": "r"}),
            expected_rows=n_orders,
        )
        .to_pandas()
        .sort_values(["r", "o_custkey"], ascending=[False, True])
        .reset_index(drop=True)
    )
    r = cust["r"].to_numpy()
    total = int(r.sum())
    cum = r.cumsum()

    def n_cover(pct: int) -> int:
        return int(np.searchsorted(cum * 100, pct * total, side="left")) + 1

    return pd.DataFrame({
        "n_customers": [len(cust)],
        "total_c": [total],
        "n50": [n_cover(50)],
        "n80": [n_cover(80)],
        "n95": [n_cover(95)],
        "top_share_ppm": [int(r[0]) * 1_000_000 // total],
    }).astype("int64")


# --------------------------------------------------------------------------
# Optimal caption line-breaking DP (q415)
# --------------------------------------------------------------------------

_LINEBREAK_SQL = (
    "SELECT fmt, n_captions, sum_badness, sum_lines, max_badness "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/linebreak_sf0.01.parquet') "
    "ORDER BY fmt"
)

_LB_WIDTH = 32


def _line_break(tokens: list[str], width: int = _LB_WIDTH
                ) -> tuple[int, int]:
    """Knuth-Plass-style optimal line breaking, bottom-up DP: minimize
    Σ (width − line_len)² over all lines but the last; an overflowing
    line costs (line_len − width)²·1000 (charged even on the last
    line).  Once a candidate line overflows, longer lines are never
    taken (overflow badness grows faster than any downstream saving —
    the twin breaks identically).  Returns (min_badness, n_lines)."""
    n = len(tokens)
    best = [(0, 0)] * (n + 1)  # from the END: (badness, lines)
    for i in range(n - 1, -1, -1):
        cand = None
        ln = -1
        for j in range(i + 1, n + 1):
            ln += len(tokens[j - 1]) + 1
            if ln <= width:
                bad = 0 if j == n else (width - ln) ** 2
            else:
                bad = (ln - width) ** 2 * 1000
            rest, lines = best[j]
            c = (bad + rest, lines + 1)
            if cand is None or c < cand:
                cand = c
            if ln > width:
                break
        best[i] = cand
    return best[0]


@query("q415_line_breaking", sql=_LINEBREAK_SQL)
def q415_line_breaking(sf_dir: str):
    """Optimal caption line-breaking census per format — the Knuth-
    Plass badness DP (minimize squared raggedness over wrap lines at
    width 32, last line free, loud overflow penalty): the typesetting
    primitive behind caption rendering budgets, and a second
    sequence-DP shape (after q392's DTW) exercised over the REAL
    caption column.  Per caption the DP is O(tokens x width) driver-
    free work inside map_batches; two ints per caption shuffle.
    Oracle: committed fixture from the INDEPENDENT memoized TOP-DOWN
    recursion twin (different traversal, same spec).  Output: (fmt,
    n_captions, sum_badness, sum_lines, max_badness)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["caption", "fmt"])

    def partial(t: pa.Table) -> pd.DataFrame:
        rows: dict[str, list] = {}
        for cap, fmt in zip(t["caption"].to_pylist(),
                            t["fmt"].to_pylist()):
            bad, lines = _line_break(cap.split())
            st = rows.setdefault(fmt, [0, 0, 0, 0])
            st[0] += 1
            st[1] += bad
            st[2] += lines
            st[3] = max(st[3], bad)
        return pd.DataFrame(
            [(f, *v) for f, v in rows.items()],
            columns=["fmt", "n_captions", "sum_badness", "sum_lines",
                     "max_badness"],
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("fmt")
        .aggregate(
            Sum("n_captions", alias_name="n_captions"),
            Sum("sum_badness", alias_name="sum_badness"),
            Sum("sum_lines", alias_name="sum_lines"),
            Max("max_badness", alias_name="max_badness"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_captions", "sum_badness", "sum_lines", "max_badness"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_captions", "sum_badness", "sum_lines",
                "max_badness"]]


# --------------------------------------------------------------------------
# Reed-Solomon GF(256) parity audit over the image payload (q416)
# --------------------------------------------------------------------------

_RS_SQL = (
    "SELECT fmt, n_images, n_chunks, sum_parity, xor_parity "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/rs_parity_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q416_rs_parity", sql=_RS_SQL)
def q416_rs_parity(sf_dir: str):
    """Reed-Solomon GF(2^8) parity census over the RAW image payload —
    the ECC actually deployed under object stores, completing the
    integrity ladder q275 (CRC ledger) → q308 (Merkle root) → RS
    (correcting code): 8 parity symbols per 64-byte chunk, remainder
    of data(x)·x^8 mod g(x) over GF(256)/0x11D.  The division is
    sequential only in the 64 byte POSITIONS — whole-array across
    chunks via log/antilog tables (stages/images.py::RsParity);
    three ints per image shuffle, payload bytes never leave the
    actor.  Oracle: committed fixture from the INDEPENDENT scalar
    peasant-multiplication twin (bitwise GF mult, no tables).
    Output: (fmt, n_images, n_chunks, sum_parity, xor_parity)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import RsParity

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        RsParity, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_chunks", "sum_parity", "xor_parity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_chunks": g["n_chunks"].sum(),
            "sum_parity": g["sum_parity"].sum(),
            "xor_parity": g["xor_parity"].agg(
                lambda s: int(np.bitwise_xor.reduce(s.to_numpy()))),
        }).reset_index()

    parts = scored.map_batches(partial, batch_format="pandas").to_pandas()
    rows = []
    for fmt, sub in parts.groupby("fmt"):
        rows.append((fmt, int(sub["n_images"].sum()),
                     int(sub["n_chunks"].sum()),
                     int(sub["sum_parity"].sum()),
                     int(np.bitwise_xor.reduce(sub["xor_parity"].to_numpy()))))
    out = pd.DataFrame(rows, columns=["fmt", "n_images", "n_chunks",
                                      "sum_parity", "xor_parity"]
                       ).sort_values("fmt").reset_index(drop=True)
    for c in ("n_images", "n_chunks", "sum_parity", "xor_parity"):
        out[c] = out[c].astype("int64")
    return out


# --------------------------------------------------------------------------
# Euler-number topology census over the image payload (q417)
# --------------------------------------------------------------------------

_EULER_SQL = (
    "SELECT fmt, n_images, sum_fg, sum_euler, min_euler, max_euler "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/euler_sf0.01.parquet') ORDER BY fmt"
)


@query("q417_euler_topology", sql=_EULER_SQL)
def q417_euler_topology(sf_dir: str):
    """Euler-number topology census per format — components minus
    holes of the Otsu foreground (8-connected fg / 4-connected bg)
    computed WITHOUT any labeling pass: Gray's quad-count identity
    E8 = (Q1 − Q3 − 2·QD)/4 over one bincount of packed 2x2 codes
    (stages/images.py::EulerTopology) — the topological complement
    to q269's blob count (a donut and a disk share area, not Euler
    number).  Two ints per image shuffle.  Oracle: committed fixture
    from the INDEPENDENT flood-fill twin (explicit component and
    hole enumeration).  Output: (fmt, n_images, sum_fg, sum_euler,
    min_euler, max_euler)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import EulerTopology

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        EulerTopology, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_fg", "euler8"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_fg": g["n_fg"].sum(),
            "sum_euler": g["euler8"].sum(),
            "min_euler": g["euler8"].min(),
            "max_euler": g["euler8"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_fg", alias_name="sum_fg"),
            Sum("sum_euler", alias_name="sum_euler"),
            Min("min_euler", alias_name="min_euler"),
            Max("max_euler", alias_name="max_euler"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_fg", "sum_euler", "min_euler",
              "max_euler"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_fg", "sum_euler", "min_euler",
                "max_euler"]]


# --------------------------------------------------------------------------
# Grouped top-k with lossless combiner truncation (q418)
# --------------------------------------------------------------------------

_GROUP_TOPK_SQL = """
SELECT o_custkey, rnk, o_orderkey, price_c FROM (
    SELECT o_custkey, o_orderkey,
           CAST(round(o_totalprice * 100) AS BIGINT) AS price_c,
           ROW_NUMBER() OVER (
               PARTITION BY o_custkey
               ORDER BY round(o_totalprice * 100) DESC, o_orderkey
           ) AS rnk
    FROM orders
)
WHERE rnk <= 2
ORDER BY o_custkey, rnk
"""


@query("q418_group_topk", sql=_GROUP_TOPK_SQL)
def q418_group_topk(sf_dir: str):
    """Top-2 orders per customer (price desc, orderkey tie-break) —
    the canonical per-group top-k at scale: per-batch partials keep
    ONLY each group's local top-2 (a provably lossless combiner
    truncation: any global top-2 row is a local top-2 row in its
    batch), so the exchange carries ≤ 2·groups·blocks rows instead of
    the table, then one bucketed per-group combine finishes.  Output:
    (o_custkey, rnk, o_orderkey, price_c)."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["price_c", "o_orderkey"],
                            ascending=[False, True])
        return df.groupby("o_custkey", sort=False).head(2)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(price_c=np.round(
            df["o_totalprice"].to_numpy() * 100).astype(np.int64))
        return topk(df[["o_custkey", "o_orderkey", "price_c"]])

    winners = bucketed_groupby(
        orders.map_batches(partial, batch_format="pandas"),
        ["o_custkey"],
        topk,
        n_buckets=8,
    ).to_pandas()
    winners = winners.sort_values(
        ["o_custkey", "price_c", "o_orderkey"],
        ascending=[True, False, True]).reset_index(drop=True)
    winners["rnk"] = winners.groupby("o_custkey").cumcount() + 1
    for c in ("o_custkey", "rnk", "o_orderkey", "price_c"):
        winners[c] = winners[c].astype("int64")
    return winners[["o_custkey", "rnk", "o_orderkey", "price_c"]]


# --------------------------------------------------------------------------
# Bayer ordered-dither halftoning census over the image payload (q419)
# --------------------------------------------------------------------------

_DITHER_SQL = (
    "SELECT fmt, n_images, n_px, n_on, n_flips FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/dither_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q419_ordered_dither", sql=_DITHER_SQL)
def q419_ordered_dither(sf_dir: str):
    """8x8 Bayer ordered-dither halftoning census per format — 1-bit
    quantization through the classic tiled threshold matrix vs the
    flat mid-gray threshold: gradients flip many pixels (dither
    encodes intermediate tones spatially), hard graphics flip none —
    the halftoning complement to q408's demosaic (both ends of the
    sensor/display pipeline).  Integer cross-multiplied compare
    2·lum·64 > (2·b+1)·765, whole-array np.tile
    (stages/images.py::OrderedDither); three ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel twin
    using the BIT-INTERLEAVE closed form of the Bayer matrix (vs the
    stage's recursive block construction).  Output: (fmt, n_images,
    n_px, n_on, n_flips)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import OrderedDither

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        OrderedDither, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_px", "n_on", "n_flips"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_px": g["n_px"].sum(),
            "n_on": g["n_on"].sum(),
            "n_flips": g["n_flips"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_px", alias_name="n_px"),
            Sum("n_on", alias_name="n_on"),
            Sum("n_flips", alias_name="n_flips"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_px", "n_on", "n_flips"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_px", "n_on", "n_flips"]]


# --------------------------------------------------------------------------
# Silence-trim census over the audio payload (q420)
# --------------------------------------------------------------------------

_SILENCE_SQL = (
    "SELECT fmt, n_clips, n_samples, sum_lead, sum_trail, sum_active "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/silence_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q420_silence_trim", sql=_SILENCE_SQL)
def q420_silence_trim(sf_dir: str):
    """Leading/trailing silence census per audio format — the
    boundary-trim audit every speech pipeline runs before training
    (silence wastes tokens and skews VAD statistics; complements
    q395's WHERE-the-energy-sits with WHAT-to-cut).  Silent iff
    |x| ≤ 64 (−54 dBFS); one boolean argmax per side, whole-array
    numpy in the actor pool (stages/av.py::SilenceTrim); four ints
    per clip shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-sample scalar walk twin.  Output: (fmt, n_clips, n_samples,
    sum_lead, sum_trail, sum_active)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import SilenceTrim

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        SilenceTrim, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_samples", "n_lead", "n_trail", "n_active"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_samples": g["n_samples"].sum(),
            "sum_lead": g["n_lead"].sum(),
            "sum_trail": g["n_trail"].sum(),
            "sum_active": g["n_active"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_samples", alias_name="n_samples"),
            Sum("sum_lead", alias_name="sum_lead"),
            Sum("sum_trail", alias_name="sum_trail"),
            Sum("sum_active", alias_name="sum_active"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_samples", "sum_lead", "sum_trail",
              "sum_active"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_samples", "sum_lead", "sum_trail",
                "sum_active"]]


# --------------------------------------------------------------------------
# IMA ADPCM codec round-trip audit over the audio payload (q421)
# --------------------------------------------------------------------------

_ADPCM_SQL = (
    "SELECT fmt, n_clips, n_blocks, sse, max_err FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/adpcm_sf0.01.parquet') ORDER BY fmt"
)


@query("q421_adpcm_audit", sql=_ADPCM_SQL)
def q421_adpcm_audit(sf_dir: str):
    """IMA ADPCM 4-bit round-trip audit per audio format — the
    ADAPTIVE differential codec (step table + index adaptation)
    closing the codec-audit pair with q407's instantaneous mu-law:
    ADPCM tracks the waveform, so tonal clips reconstruct far better
    than noise at the same 4 bits/sample.  Per-block predictor reset
    makes blocks independent, so the 63 sequential positions run
    VECTORIZED ACROSS a clip's blocks (numpy state vectors, position
    loop only — same blocked-codec shape as q416's RS division;
    stages/av.py::AdpcmAudit).  Three ints per clip shuffle.  Oracle:
    committed fixture from the INDEPENDENT per-sample scalar state-
    machine twin.  Output: (fmt, n_clips, n_blocks, sse, max_err)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import AdpcmAudit

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        AdpcmAudit, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_blocks", "sse", "max_err"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_blocks": g["n_blocks"].sum(),
            "sse": g["sse"].sum(),
            "max_err": g["max_err"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_blocks", alias_name="n_blocks"),
            Sum("sse", alias_name="sse"),
            Max("max_err", alias_name="max_err"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_blocks", "sse", "max_err"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_blocks", "sse", "max_err"]]


# --------------------------------------------------------------------------
# Foreground shape central-moment census over the image payload (q422)
# --------------------------------------------------------------------------

_MOMENTS_SQL = (
    "SELECT fmt, n_images, sum_fg, sum_mu20s, sum_mu02s, sum_mu11s "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/moments_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q422_shape_moments", sql=_MOMENTS_SQL)
def q422_shape_moments(sf_dir: str):
    """Exact n²-scaled central moments of the Otsu foreground per
    format — orientation/elongation shape statistics (glyphs, banners
    and blobs separate by second-moment anisotropy): division-free
    via the clear-the-mean identity mu20s = n·Σx² − (Σx)² (the q391
    covariance trick applied to shape).  Whole-array nonzero + sums
    in the actor pool (stages/images.py::ShapeMoments); four ints per
    image shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-pixel scalar-sum twin (scalar Otsu included).  Output: (fmt,
    n_images, sum_fg, sum_mu20s, sum_mu02s, sum_mu11s)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import ShapeMoments

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        ShapeMoments, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_fg", "mu20s", "mu02s", "mu11s"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_fg": g["n_fg"].sum(),
            "sum_mu20s": g["mu20s"].sum(),
            "sum_mu02s": g["mu02s"].sum(),
            "sum_mu11s": g["mu11s"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_fg", alias_name="sum_fg"),
            Sum("sum_mu20s", alias_name="sum_mu20s"),
            Sum("sum_mu02s", alias_name="sum_mu02s"),
            Sum("sum_mu11s", alias_name="sum_mu11s"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_fg", "sum_mu20s", "sum_mu02s",
              "sum_mu11s"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_fg", "sum_mu20s", "sum_mu02s",
                "sum_mu11s"]]


# --------------------------------------------------------------------------
# Byte-uniformity chi-square audit over the raw payload (q423)
# --------------------------------------------------------------------------

_BYTEU_SQL = (
    "SELECT fmt, n_images, n_bytes, sum_o2, sum_distinct "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/byteuniform_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q423_byte_uniformity", sql=_BYTEU_SQL)
def q423_byte_uniformity(sf_dir: str):
    """Chi-square byte-uniformity audit of the RAW image payload per
    format — distance of the encoded stream from uniform(256) with
    NO logarithm: χ²·N = 256·Σo² − N² is exact in the emitted
    integers, so the entropy-ish compression-quality ranking of the
    storage formats needs only Σo² and N (complements q206's encoding
    stats and q289's LZ76 complexity from the byte-distribution
    side).  One bincount per payload in the actor pool
    (stages/images.py::ByteUniformity); three ints per image shuffle,
    payload bytes never leave the actor.  Oracle: committed fixture
    from the INDEPENDENT per-byte dict-census twin.  Output: (fmt,
    n_images, n_bytes, sum_o2, sum_distinct)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import ByteUniformity

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        ByteUniformity, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_bytes", "sum_o2", "n_distinct"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_bytes": g["n_bytes"].sum(),
            "sum_o2": g["sum_o2"].sum(),
            "sum_distinct": g["n_distinct"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_bytes", alias_name="n_bytes"),
            Sum("sum_o2", alias_name="sum_o2"),
            Sum("sum_distinct", alias_name="sum_distinct"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_bytes", "sum_o2", "sum_distinct"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_bytes", "sum_o2", "sum_distinct"]]


# --------------------------------------------------------------------------
# First-fit-decreasing bin packing over part sizes (q424)
# --------------------------------------------------------------------------

_FFD_SQL = (
    "SELECT n_items, total_size, lower_bound, n_bins, waste "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/ffd_sf0.01.parquet')"
)

_FFD_CAP = 100


@query("q424_ffd_binpack", sql=_FFD_SQL)
def q424_ffd_binpack(sf_dir: str):
    """First-fit-decreasing bin packing of part sizes into capacity-
    100 bins — the batch/container-packing planner (shard sizing,
    shipment consolidation), with the exact ceil lower bound for the
    approximation-gap audit (FFD ≤ 11/9·OPT + 6/9).  Plan: sizes are
    column-pruned and sorted DISTRIBUTED (ds.sort by size desc with a
    partkey tie-break via composite key), the packing itself is the
    inherently-sequential finish on the sorted stream — item-count
    driver work with a VECTORIZED first-fit scan (np.argmax over
    remaining capacities) per item.  Output: one row (n_items,
    total_size, lower_bound, n_bins, waste)."""
    parts = _read(sf_dir, "part", ["p_partkey", "p_size"])
    # composite sort key: size desc, partkey asc — encoded so ONE
    # ascending distributed sort yields the FFD order
    keyed = parts.map_batches(
        lambda t: t.append_column(
            "ffd_key",
            pc.add(pc.multiply(pc.subtract(
                pa.scalar(51, pa.int64()),
                pc.cast(t["p_size"], pa.int64())),
                pa.scalar(1 << 32, pa.int64())),
                pc.cast(t["p_partkey"], pa.int64())),
        ),
        batch_format="pyarrow",
    )
    ordered = keyed.sort("ffd_key").to_pandas()
    sizes = ordered["p_size"].to_numpy().astype(np.int64)
    remaining = np.empty(len(sizes), np.int64)  # preallocated bin pool
    n_bins = 0
    for sz in sizes:
        view = remaining[:n_bins]
        fit = view >= sz
        if fit.any():
            view[int(np.argmax(fit))] -= sz
        else:
            remaining[n_bins] = _FFD_CAP - sz
            n_bins += 1
    total = int(sizes.sum())
    lb = -(-total // _FFD_CAP)
    return pd.DataFrame([{
        "n_items": len(sizes),
        "total_size": total,
        "lower_bound": lb,
        "n_bins": n_bins,
        "waste": n_bins * _FFD_CAP - total,
    }]).astype("int64")


# --------------------------------------------------------------------------
# Sliding-window maximum distinct users over events (q425)
# --------------------------------------------------------------------------

_WINDOW_DISTINCT_SQL = """
WITH w AS (
    SELECT e1.ts AS st, COUNT(DISTINCT e2.user_id) AS c
    FROM events e1
    JOIN events e2
      ON e2.ts >= e1.ts AND e2.ts < e1.ts + INTERVAL 1 HOUR
    GROUP BY e1.ts
)
SELECT CAST((SELECT MAX(c) FROM w) AS BIGINT) AS max_distinct,
       CAST((SELECT epoch_us(MIN(st)) FROM w
             WHERE c = (SELECT MAX(c) FROM w)) AS BIGINT)
           AS best_start_us,
       CAST((SELECT COUNT(*) FROM events) AS BIGINT) AS n_events
"""


@query("q425_window_distinct", sql=_WINDOW_DISTINCT_SQL)
def q425_window_distinct(sf_dir: str):
    """Maximum distinct users in any 1-hour sliding window (window
    starts at an event — sufficient for the max) — the burst-audience
    audit complementing q196's interval concurrency (points + distinct
    entities, not overlapping spans) and q292's window max burst
    (distinct users, not event counts).  Plan: (ts, user) partials
    stream to the driver sorted-merge (event-count-sized; at page
    scale the two-pointer runs per ts-range partition with boundary
    overlap — the q351 halo pattern), then ONE two-pointer sweep with
    a multiset counter.  Earliest best window start breaks ties.
    Output: (max_distinct, best_start_us, n_events)."""
    events = _read(sf_dir, "events", ["ts", "user_id"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        return pd.DataFrame({
            # normalize to us regardless of the source resolution
            "ts_us": df["ts"].astype("datetime64[us]").astype("int64"),
            "user_id": df["user_id"].astype("int64"),
        })

    ev = events.map_batches(partial, batch_format="pyarrow").to_pandas()
    ev = ev.sort_values(["ts_us", "user_id"]).reset_index(drop=True)
    ts = ev["ts_us"].to_numpy()
    users = ev["user_id"].to_numpy()
    n = len(ts)
    HOUR = 3_600_000_000
    counts: dict[int, int] = {}
    distinct = 0
    best, best_start = 0, 0
    j = 0
    for i in range(n):
        while j < n and ts[j] < ts[i] + HOUR:
            u = int(users[j])
            c = counts.get(u, 0)
            counts[u] = c + 1
            if c == 0:
                distinct += 1
            j += 1
        if distinct > best:
            best, best_start = distinct, int(ts[i])
        u = int(users[i])
        counts[u] -= 1
        if counts[u] == 0:
            distinct -= 1
    return pd.DataFrame([{
        "max_distinct": best,
        "best_start_us": best_start,
        "n_events": n,
    }]).astype("int64")


# --------------------------------------------------------------------------
# RLSA run-length-smearing layout census over the image payload (q426)
# --------------------------------------------------------------------------

_RLSA_SQL = (
    "SELECT fmt, n_images, sum_fg, sum_filled, sum_runs_before, "
    "sum_runs_after FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/rlsa_sf0.01.parquet') ORDER BY fmt"
)


@query("q426_rlsa_layout", sql=_RLSA_SQL)
def q426_rlsa_layout(sf_dir: str):
    """RLSA (run-length smearing) layout census per format — fill
    horizontal background gaps ≤ 4 px between Otsu-foreground pixels
    and measure how the black-run structure collapses: text lines
    smear into bars, noise stays fragmented — the classic Wahl-Wong-
    Casey document-layout primitive.  Exact gap rule ld + rd − 1 ≤ S
    via S shifted-view distance passes per side, no per-pixel loop
    (stages/images.py::RlsaLayout); four ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel scalar
    row-walk twin (explicit gap-run scan).  Output: (fmt, n_images,
    sum_fg, sum_filled, sum_runs_before, sum_runs_after)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import RlsaLayout

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        RlsaLayout, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_fg", "n_filled", "runs_before",
                      "runs_after"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_fg": g["n_fg"].sum(),
            "sum_filled": g["n_filled"].sum(),
            "sum_runs_before": g["runs_before"].sum(),
            "sum_runs_after": g["runs_after"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_fg", alias_name="sum_fg"),
            Sum("sum_filled", alias_name="sum_filled"),
            Sum("sum_runs_before", alias_name="sum_runs_before"),
            Sum("sum_runs_after", alias_name="sum_runs_after"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_fg", "sum_filled", "sum_runs_before",
              "sum_runs_after"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_fg", "sum_filled",
                "sum_runs_before", "sum_runs_after"]]


# --------------------------------------------------------------------------
# Canny double-threshold + hysteresis edge census (q427)
# --------------------------------------------------------------------------

_CANNY_SQL = (
    "SELECT fmt, n_images, sum_strong, sum_weak, sum_kept "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/canny_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q427_canny_hysteresis", sql=_CANNY_SQL)
def q427_canny_hysteresis(sf_dir: str):
    """Canny-style double-threshold + hysteresis edge census per
    format — strong Sobel edges seed a flood through weak pixels, so
    faint but CONNECTED contours survive while isolated speckle dies:
    the edge-quality gate that q403's line votes and q283's
    orientation census build on but never measure.  Hysteresis runs
    as iterative whole-array dilation inside the weak mask until
    fixpoint (stages/images.py::CannyHysteresis); three ints per
    image shuffle.  Oracle: committed fixture from the INDEPENDENT
    scalar BFS-flood twin.  Output: (fmt, n_images, sum_strong,
    sum_weak, sum_kept)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import CannyHysteresis

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        CannyHysteresis, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "n_strong", "n_weak", "n_kept"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_strong": g["n_strong"].sum(),
            "sum_weak": g["n_weak"].sum(),
            "sum_kept": g["n_kept"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_strong", alias_name="sum_strong"),
            Sum("sum_weak", alias_name="sum_weak"),
            Sum("sum_kept", alias_name="sum_kept"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_strong", "sum_weak", "sum_kept"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_strong", "sum_weak", "sum_kept"]]


# --------------------------------------------------------------------------
# Walsh spectral-flux onset census over the audio payload (q428)
# --------------------------------------------------------------------------

_ONSETS_SQL = (
    "SELECT fmt, n_clips, n_frames, n_onsets, max_flux "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/onsets_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q428_walsh_onsets", sql=_ONSETS_SQL)
def q428_walsh_onsets(sf_dir: str):
    """Spectral-flux onset census per audio format — frame-to-frame L1
    change of the EXACT-integer Walsh sequency spectrum (q402's
    butterfly reused); an onset is a frame whose flux beats twice the
    clip's median flux (lower-middle median, integer compare): the
    attack/transient detector that complements q386's sustained pitch
    and q395's energy gate.  Whole-block butterflies + one diff in the
    actor pool (stages/av.py::WalshOnsets); three ints per clip
    shuffle.  Oracle: committed fixture from the INDEPENDENT explicit
    Sylvester-matmul + sorted-list-median twin.  Output: (fmt,
    n_clips, n_frames, n_onsets, max_flux)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import WalshOnsets

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        WalshOnsets, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_frames", "n_onsets", "max_flux"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_frames": g["n_frames"].sum(),
            "n_onsets": g["n_onsets"].sum(),
            "max_flux": g["max_flux"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_frames", alias_name="n_frames"),
            Sum("n_onsets", alias_name="n_onsets"),
            Max("max_flux", alias_name="max_flux"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_frames", "n_onsets", "max_flux"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_frames", "n_onsets", "max_flux"]]


# --------------------------------------------------------------------------
# ALL-quantifier: customers entirely above their nation's median (q429)
# --------------------------------------------------------------------------

_ALLQ_SQL = """
WITH op AS (
    SELECT c_nationkey AS nk, o_custkey AS ck,
           CAST(round(o_totalprice * 100) AS BIGINT) AS pc
    FROM orders JOIN customer ON c_custkey = o_custkey
), med AS (
    SELECT nk, pc,
           ROW_NUMBER() OVER (PARTITION BY nk ORDER BY pc) AS rn,
           COUNT(*) OVER (PARTITION BY nk) AS n
    FROM op
), m AS (
    SELECT nk, pc AS median_c FROM med WHERE rn = (n + 1) // 2
), cust AS (
    SELECT nk, ck, MIN(pc) AS mn FROM op GROUP BY nk, ck
)
SELECT m.nk AS nationkey,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CASE WHEN cust.mn > m.median_c THEN 1 ELSE 0 END)
            AS BIGINT) AS n_all_above,
       CAST(m.median_c AS BIGINT) AS median_c
FROM cust JOIN m ON cust.nk = m.nk
GROUP BY m.nk, m.median_c
ORDER BY nationkey
"""


@query("q429_all_quantifier", sql=_ALLQ_SQL)
def q429_all_quantifier(sf_dir: str):
    """ALL-quantifier census: per nation, how many customers have
    EVERY order above the nation's median order value (exact lower-
    middle median, rank (n+1)//2) — the universally-quantified filter
    shape (NOT EXISTS below-median order) that trips naive engines:
    reduced here to MIN-per-customer > median, turning a correlated
    subquery into two combiner aggregates.  Plan: ONE (nation,
    price)-count exchange for the exact medians (distinct-value-sized
    driver cumulative scan), ONE (nation, customer) MIN exchange, the
    customer->nation map broadcast once via ray.put.  Output:
    (nationkey, n_customers, n_all_above, median_c)."""
    cust_map = _read(sf_dir, "customer",
                     ["c_custkey", "c_nationkey"]).to_pandas()
    nk_ref = ray.put(dict(zip(cust_map["c_custkey"].astype(int),
                              cust_map["c_nationkey"].astype(int))))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def vc_partial(df: pd.DataFrame) -> pd.DataFrame:
        nk = ray.get(nk_ref)
        df = df.assign(
            nk=df["o_custkey"].map(nk).astype(np.int64),
            pc=np.round(df["o_totalprice"].to_numpy() * 100
                        ).astype(np.int64),
        )
        g = df.groupby(["nk", "pc"])
        return pd.DataFrame({"pn": g.size()}).reset_index()

    from texrex_ray.ops.aggregate import bucketed_groupby

    n_orders = orders.count()  # metadata-only on parquet
    # (nation, price) keys are near-distinct-value cardinality: bucketed
    # combine, not the native per-group sort aggregate (22 s -> ~2 s)
    vc = (
        bucketed_groupby(
            orders.map_batches(vc_partial, batch_format="pandas"),
            ["nk", "pc"],
            lambda g: g.groupby(["nk", "pc"], as_index=False)["pn"].sum()
            .rename(columns={"pn": "n"}),
            expected_rows=n_orders,
        )
        .to_pandas()
        .sort_values(["nk", "pc"])
    )
    medians: dict[int, int] = {}
    for nk, sub in vc.groupby("nk"):
        total = int(sub["n"].sum())
        target = (total + 1) // 2
        cum = sub["n"].cumsum()
        medians[int(nk)] = int(
            sub["pc"].to_numpy()[int(np.searchsorted(cum, target))])

    def cust_partial(df: pd.DataFrame) -> pd.DataFrame:
        nk = ray.get(nk_ref)
        df = df.assign(
            nk=df["o_custkey"].map(nk).astype(np.int64),
            pc=np.round(df["o_totalprice"].to_numpy() * 100
                        ).astype(np.int64),
        )
        g = df.groupby(["nk", "o_custkey"])
        return pd.DataFrame({"mn": g["pc"].min()}).reset_index()

    cust = bucketed_groupby(
        orders.map_batches(cust_partial, batch_format="pandas"),
        ["nk", "o_custkey"],
        lambda g: g.groupby(["nk", "o_custkey"], as_index=False)["mn"].min(),
        expected_rows=n_orders,
    ).to_pandas()
    rows = []
    for nk, sub in cust.groupby("nk"):
        med = medians[int(nk)]
        rows.append((int(nk), len(sub),
                     int((sub["mn"] > med).sum()), med))
    out = pd.DataFrame(rows, columns=["nationkey", "n_customers",
                                      "n_all_above", "median_c"]
                       ).sort_values("nationkey").reset_index(drop=True)
    return out.astype("int64")


# --------------------------------------------------------------------------
# Crack-perimeter compactness of the dominant blob (q430)
# --------------------------------------------------------------------------

_PERIM_SQL = (
    "SELECT fmt, n_images, sum_area, sum_perim, max_compact_ppm "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/perimeter_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q430_crack_perimeter", sql=_PERIM_SQL)
def q430_crack_perimeter(sf_dir: str):
    """Crack-boundary perimeter + isoperimetric compactness of the
    largest 4-connected bright blob per format — boundary length is
    the shape signal q372's area and q422's moments miss (equal-area
    disk vs starburst differ 10x in perimeter; compactness
    P²·10⁶/A: square 16e6, filament ≫).  Same min-label relaxation
    as LargestBlob, perimeter as two padded-diff counts — no boundary
    walk (stages/images.py::CrackPerimeter); three ints per image
    shuffle.  Oracle: committed fixture from the INDEPENDENT BFS +
    scalar edge-count twin.  Output: (fmt, n_images, sum_area,
    sum_perim, max_compact_ppm)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import CrackPerimeter

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        CrackPerimeter, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "blob_area", "blob_perim", "compact_ppm"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_area": g["blob_area"].sum(),
            "sum_perim": g["blob_perim"].sum(),
            "max_compact_ppm": g["compact_ppm"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_area", alias_name="sum_area"),
            Sum("sum_perim", alias_name="sum_perim"),
            Max("max_compact_ppm", alias_name="max_compact_ppm"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_area", "sum_perim", "max_compact_ppm"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_area", "sum_perim",
                "max_compact_ppm"]]


# --------------------------------------------------------------------------
# Exact Kendall tau between daily revenue and daily volume (q431)
# --------------------------------------------------------------------------

_KENDALL_SQL = """
WITH daily AS (
    SELECT CAST(ts AS DATE) AS d,
           SUM(CAST(round(value * 100) AS BIGINT)) AS x,
           CAST(COUNT(*) AS BIGINT) AS y
    FROM events GROUP BY 1
), pairs AS (
    SELECT CASE WHEN (a.x - b.x) * (a.y - b.y) > 0 THEN 1 ELSE 0 END c,
           CASE WHEN (a.x - b.x) * (a.y - b.y) < 0 THEN 1 ELSE 0 END dd
    FROM daily a JOIN daily b ON a.d < b.d
)
SELECT CAST((SELECT COUNT(*) FROM daily) AS BIGINT) AS n_days,
       CAST(SUM(c) AS BIGINT) AS n_conc,
       CAST(SUM(dd) AS BIGINT) AS n_disc,
       CAST(COUNT(*) - SUM(c) - SUM(dd) AS BIGINT) AS n_ties,
       CAST((SUM(c) - SUM(dd)) * 1000000
            / ((SELECT COUNT(*) FROM pairs)) AS BIGINT) AS tau_a_ppm
FROM pairs
"""


@query("q431_kendall_tau", sql=_KENDALL_SQL)
def q431_kendall_tau(sf_dir: str):
    """EXACT Kendall tau-a between the daily revenue and daily volume
    series — the rank-correlation complement to q221's Pearson
    (Kendall sees monotone association without any distributional
    assumption, and the statistic is pure integer pair counting:
    concordant − discordant over all day pairs).  Plan: ONE daily
    combiner aggregate (day, Σ cents, count), the O(days²) pair scan
    is day-count-sized driver work in Python ints; tau_a_ppm uses
    C-integer floor division matching the SQL.  Output: (n_days,
    n_conc, n_disc, n_ties, tau_a_ppm)."""
    events = _read(sf_dir, "events", ["ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["ts"].astype("datetime64[us]").dt.normalize()
        v = np.round(df["value"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"d": d, "v": v}).groupby("d")
        return pd.DataFrame({
            "x": g["v"].sum(), "y": g.size(),
        }).reset_index()

    daily = (
        events.map_batches(partial, batch_format="pandas")
        .groupby("d")
        .aggregate(Sum("x", alias_name="x"), Sum("y", alias_name="y"))
        .to_pandas()
        .sort_values("d")
        .reset_index(drop=True)
    )
    xs = [int(v) for v in daily["x"]]
    ys = [int(v) for v in daily["y"]]
    n = len(xs)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
    pairs = n * (n - 1) // 2
    # SQL integer division truncates toward zero; match it exactly
    num = (conc - disc) * 1_000_000
    tau = abs(num) // pairs * (1 if num >= 0 else -1)
    return pd.DataFrame([{
        "n_days": n,
        "n_conc": conc,
        "n_disc": disc,
        "n_ties": pairs - conc - disc,
        "tau_a_ppm": tau,
    }]).astype("int64")


# --------------------------------------------------------------------------
# Cross-modal keyword -> chroma attribution (q432)
# --------------------------------------------------------------------------

_KEYWORD_CHROMA_SQL = (
    "SELECT token, n_images, sum_rg2, sum_px FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/keyword_chroma_sf0.01.parquet') "
    "ORDER BY n_images DESC, token"
)


@query("q432_keyword_chroma", sql=_KEYWORD_CHROMA_SQL)
def q432_keyword_chroma(sf_dir: str):
    """Cross-modal attribution: which caption keywords co-occur with
    chromatic pixels — per keyword (distinct per caption, len ≥ 3)
    the exact Σrg² opponent energy of its images: the dataset-curation
    signal 'does "colorful"/"monochrome" in the caption MEAN anything
    visually' (complements q369's global correlation with per-keyword
    attribution).  Plan: ONE actor-pool pass computes per-image chroma
    moments (Colorfulness stage), the keyword explode joins them
    IN-BATCH (tokens + moments ride the same row — no image-keyed
    shuffle at all), then a keyword-keyed combiner aggregate; top-20
    by image count, alpha tie-break.  Oracle: committed fixture from
    the INDEPENDENT scalar twin.  Output: (token, n_images, sum_rg2,
    sum_px)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import Colorfulness

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table",
                     columns=["bytes", "caption"])
    scored = ds.map_batches(
        Colorfulness, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["caption", "n_px", "sum_rg2"])

    def explode(t: pa.Table) -> pd.DataFrame:
        rows: dict[str, list] = {}
        for cap, npx, srg2 in zip(t["caption"].to_pylist(),
                                  t["n_px"].to_pylist(),
                                  t["sum_rg2"].to_pylist()):
            for tok in {w for w in _TOKEN_RE.findall(cap.lower())
                        if len(w) >= 3}:
                st = rows.setdefault(tok, [0, 0, 0])
                st[0] += 1
                st[1] += srg2
                st[2] += npx
        return pd.DataFrame(
            [(k, *v) for k, v in rows.items()],
            columns=["token", "n_images", "sum_rg2", "sum_px"],
        )

    agg = (
        scored.map_batches(explode, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_rg2", alias_name="sum_rg2"),
            Sum("sum_px", alias_name="sum_px"),
        )
        .to_pandas()
        .sort_values(["n_images", "token"], ascending=[False, True])
        .head(20)
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_rg2", "sum_px"):
        agg[c] = agg[c].astype("int64")
    return agg[["token", "n_images", "sum_rg2", "sum_px"]]


# --------------------------------------------------------------------------
# Temporally-static tile census over the video payload (q433)
# --------------------------------------------------------------------------

_STATIC_SQL = (
    "SELECT fmt, n_clips, n_tiles, n_static, max_range "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/statictiles_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q433_static_tiles", sql=_STATIC_SQL)
def q433_static_tiles(sf_dir: str):
    """Temporally-static tile census per video format — per 4x4 tile
    the exact RANGE of its summed luminance across frames: overlay
    regions (logos, watermarks, UI chrome) hold still while content
    moves — the temporal complement to q398's spatial template search
    and the region-level refinement of q411's global sums.  One
    reshape-reduce per clip in the actor pool
    (stages/av.py::StaticTiles); three ints per clip shuffle.
    Oracle: committed fixture from the INDEPENDENT per-tile scalar
    walk twin.  Output: (fmt, n_clips, n_tiles, n_static,
    max_range)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import StaticTiles

    _, n_vid = _av_n(sf_dir)
    d = av_fixture(n=n_vid, seed=42)
    ds = ray.data.read_parquet(f"{d}/video.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        StaticTiles, concurrency=2, batch_size=32, batch_format="pyarrow"
    ).select_columns(["fmt", "n_tiles", "n_static", "max_range"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_tiles": g["n_tiles"].sum(),
            "n_static": g["n_static"].sum(),
            "max_range": g["max_range"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_tiles", alias_name="n_tiles"),
            Sum("n_static", alias_name="n_static"),
            Max("max_range", alias_name="max_range"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_tiles", "n_static", "max_range"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_tiles", "n_static", "max_range"]]


# --------------------------------------------------------------------------
# Hapax legomena vocabulary-richness census (q434)
# --------------------------------------------------------------------------

_HAPAX_SQL = """
WITH toks AS (
    SELECT source,
           unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
    FROM documents
), cnt AS (
    SELECT source, tok, COUNT(*) AS n FROM toks GROUP BY source, tok
)
SELECT source,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_hapax,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(SUM(n) AS BIGINT) AS n_tokens
FROM cnt GROUP BY source ORDER BY source
"""


@query("q434_hapax_census", sql=_HAPAX_SQL)
def q434_hapax_census(sf_dir: str):
    """Hapax legomena census per source — tokens occurring EXACTLY
    once: the vocabulary-richness statistic behind Good-Turing
    smoothing and OOV-rate forecasting (a corpus whose hapax share
    collapses is template spam; complements q225's growth curve and
    q315's MATTR with the frequency-spectrum head).  Plan: per-batch
    (source, token) count partials — the combiner — ONE exchange of
    token-type rows, hapax scan on the types-sized result.  Output:
    (source, n_hapax, n_types, n_tokens)."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        from collections import Counter

        c: Counter = Counter()
        for src, text in zip(t["source"].to_pylist(),
                             t["text"].to_pylist()):
            for tok in _TOKEN_RE.findall((text or "").lower()):
                c[(src, tok)] += 1
        rows = [(s, tok, n) for (s, tok), n in c.items()]
        return pd.DataFrame(rows, columns=["source", "tok", "pn"])

    cnt = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "tok"])
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    g = cnt.groupby("source")
    out = pd.DataFrame({
        "n_hapax": g["n"].agg(lambda s: int((s == 1).sum())),
        "n_types": g.size(),
        "n_tokens": g["n"].sum(),
    }).reset_index().sort_values("source").reset_index(drop=True)
    for c in ("n_hapax", "n_types", "n_tokens"):
        out[c] = out[c].astype("int64")
    return out[["source", "n_hapax", "n_types", "n_tokens"]]


# --------------------------------------------------------------------------
# Temporal tile-SSIM coherence census over the video payload (q435)
# --------------------------------------------------------------------------

_TSSIM_SQL = (
    "SELECT fmt, n_clips, n_tiles, sum_ssim_ppm, min_ssim_ppm "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/tssim_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q435_temporal_ssim", sql=_TSSIM_SQL)
def q435_temporal_ssim(sf_dir: str):
    """Temporal SSIM coherence census per video format — q397's
    exact-integer tile-SSIM rational evaluated between CONSECUTIVE
    frames: the PERCEPTUAL shot-coherence measure (cuts and hard
    motion crater tile SSIM even at stable exposure — refining
    q387's L1 deltas and q411's global sums).  Whole-array tile sums,
    bounded per-tile Python-int finishes, in the actor pool
    (stages/av.py::TemporalSsim); three ints per clip shuffle.
    Oracle: committed fixture from the INDEPENDENT per-tile
    scalar-loop twin.  Output: (fmt, n_clips, n_tiles, sum_ssim_ppm,
    min_ssim_ppm)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import TemporalSsim

    _, n_vid = _av_n(sf_dir)
    d = av_fixture(n=n_vid, seed=42)
    ds = ray.data.read_parquet(f"{d}/video.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        TemporalSsim, concurrency=2, batch_size=32, batch_format="pyarrow"
    ).select_columns(["fmt", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_tiles": g["n_tiles"].sum(),
            "sum_ssim_ppm": g["sum_ssim_ppm"].sum(),
            "min_ssim_ppm": g["min_ssim_ppm"].min(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_tiles", alias_name="n_tiles"),
            Sum("sum_ssim_ppm", alias_name="sum_ssim_ppm"),
            Min("min_ssim_ppm", alias_name="min_ssim_ppm"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_tiles", "sum_ssim_ppm",
                "min_ssim_ppm"]]


# --------------------------------------------------------------------------
# Adaptive Walsh energy-compaction census (q436)
# --------------------------------------------------------------------------

_COMPACTION_SQL = (
    "SELECT fmt, n_clips, n_frames, top8_energy, total_energy "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/compaction_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q436_walsh_compaction", sql=_COMPACTION_SQL)
def q436_walsh_compaction(sf_dir: str):
    """Adaptive energy-compaction census per audio format — the share
    of Walsh energy captured by each frame's 8 LARGEST coefficients
    (q402 measures FIXED bands; this measures what a transform coder
    can actually exploit: tonal frames compact, noise spreads).
    Exact ±1 basis, per-frame top-8 via np.partition (permutation-
    invariant sum, so no ordering spec needed) in the actor pool
    (stages/av.py::WalshCompaction); three ints per clip shuffle.
    Oracle: committed fixture from the INDEPENDENT Sylvester-matmul +
    per-frame sorted-list twin.  Output: (fmt, n_clips, n_frames,
    top8_energy, total_energy)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import WalshCompaction

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        WalshCompaction, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "n_frames", "top8_energy", "total_energy"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_frames": g["n_frames"].sum(),
            "top8_energy": g["top8_energy"].sum(),
            "total_energy": g["total_energy"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_frames", alias_name="n_frames"),
            Sum("top8_energy", alias_name="top8_energy"),
            Sum("total_energy", alias_name="total_energy"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_frames", "top8_energy", "total_energy"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_frames", "top8_energy",
                "total_energy"]]


# --------------------------------------------------------------------------
# Relational division: suppliers reaching EVERY region (q437)
# --------------------------------------------------------------------------

_DIVISION_SQL = """
WITH sr AS (
    SELECT DISTINCT l_suppkey AS sk, r_regionkey AS rk
    FROM lineitem
    JOIN orders   ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation   ON c_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
)
SELECT CAST(sk AS BIGINT) AS s_suppkey,
       CAST(COUNT(*) AS BIGINT) AS n_regions
FROM sr
GROUP BY sk
HAVING COUNT(*) = (SELECT COUNT(*) FROM region)
ORDER BY s_suppkey
"""


@query("q437_relational_division", sql=_DIVISION_SQL)
def q437_relational_division(sf_dir: str):
    """Relational DIVISION — suppliers whose lineitems reach customers
    in EVERY region: the set-coverage quantifier (÷ in relational
    algebra) that q429's per-group ALL cannot express (coverage of a
    dimension table, not a threshold).  Plan: the small dimension
    chain orders→customer→nation→region collapses to ONE broadcast
    orderkey→regionkey map (ray.put once), lineitem streams through a
    distinct-(supplier, region) combiner, and the division is a
    supplier-sized HAVING on the ≤ |S|·|R| pair table.  At page scale
    the broadcast map swaps for ops/join.shuffle_join on orderkey —
    the pair-combine stays identical.  Output: (s_suppkey,
    n_regions)."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).to_pandas()
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_regionkey"]).to_pandas()
    n_regions_total = int(_read(sf_dir, "region",
                                ["r_regionkey"]).count())
    ord_region = orders.merge(
        cust, left_on="o_custkey", right_on="c_custkey"
    ).merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    omap_ref = ray.put(dict(zip(ord_region["o_orderkey"].astype(int),
                                ord_region["n_regionkey"].astype(int))))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        omap = ray.get(omap_ref)
        out = pd.DataFrame({
            "sk": df["l_suppkey"].astype(np.int64),
            "rk": df["l_orderkey"].map(omap).astype(np.int64),
        })
        return out.drop_duplicates()

    n_li = li.count()  # metadata-only on parquet
    sr = bucketed_groupby(
        li.map_batches(pairs, batch_format="pandas"),
        ["sk", "rk"],
        lambda g: g[["sk", "rk"]].drop_duplicates(),
        expected_rows=n_li,
    ).to_pandas()
    cov = sr.groupby("sk").size()
    out = pd.DataFrame({
        "s_suppkey": cov[cov == n_regions_total].index.astype("int64"),
    }).sort_values("s_suppkey").reset_index(drop=True)
    out["n_regions"] = np.int64(n_regions_total)
    return out.astype("int64")


# --------------------------------------------------------------------------
# GOP delta-encoding size bound over the video payload (q438)
# --------------------------------------------------------------------------

_GOP_SQL = (
    "SELECT fmt, n_clips, sum_key_px, sum_delta_px, sum_frames "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/gop_sf0.01.parquet') ORDER BY fmt"
)


@query("q438_gop_delta_bound", sql=_GOP_SQL)
def q438_gop_delta_bound(sf_dir: str):
    """GOP delta-encoding size bound per video format — one keyframe
    (all pixels) plus the exact count of RGB-changed pixels per later
    frame: the intra/inter compression planning bound complementing
    q396's motion vectors (WHERE pixels went) and q387's cuts (WHEN
    everything changed).  Whole-array frame diffs in the actor pool
    (stages/av.py::GopDeltaBound); three ints per clip shuffle.
    Oracle: committed fixture from the INDEPENDENT per-pixel scalar
    diff twin.  Output: (fmt, n_clips, sum_key_px, sum_delta_px,
    sum_frames)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import GopDeltaBound

    _, n_vid = _av_n(sf_dir)
    d = av_fixture(n=n_vid, seed=42)
    ds = ray.data.read_parquet(f"{d}/video.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        GopDeltaBound, concurrency=2, batch_size=32, batch_format="pyarrow"
    ).select_columns(["fmt", "n_key_px", "n_delta_px", "n_frames"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "sum_key_px": g["n_key_px"].sum(),
            "sum_delta_px": g["n_delta_px"].sum(),
            "sum_frames": g["n_frames"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("sum_key_px", alias_name="sum_key_px"),
            Sum("sum_delta_px", alias_name="sum_delta_px"),
            Sum("sum_frames", alias_name="sum_frames"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "sum_key_px", "sum_delta_px", "sum_frames"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "sum_key_px", "sum_delta_px",
                "sum_frames"]]


# --------------------------------------------------------------------------
# Long-range texture-periodicity census (q439)
# --------------------------------------------------------------------------

_PERIODICITY_SQL = (
    "SELECT fmt, n_images, n_px, sum_x2, ac_h4, ac_v4, ac_d4, ac_h8, "
    "ac_v8 FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/periodicity_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q439_texture_periodicity", sql=_PERIODICITY_SQL)
def q439_texture_periodicity(sf_dir: str):
    """Long-range texture-periodicity census per format — raw integer
    autocorrelation of luminance at lags 4 and 8 (both axes +
    diagonal): tiled/repeating backgrounds light up at their period
    while GLCM (q400, adjacent) and LBP (q399, 1-px ring) are blind
    beyond 1 px.  Raw products + zero-lag reference emitted so the
    normalization stays exact downstream.  Five shifted-view
    multiply-reduces in the actor pool
    (stages/images.py::TexturePeriodicity); seven ints per image
    shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-pixel product-walk twin.  Output: (fmt, n_images, n_px,
    sum_x2, ac_h4, ac_v4, ac_d4, ac_h8, ac_v8)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import TexturePeriodicity

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    cols = ["n_px", "sum_x2", "ac_h4", "ac_v4", "ac_d4", "ac_h8",
            "ac_v8"]
    scored = ds.map_batches(
        TexturePeriodicity, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt"] + cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        out = pd.DataFrame({"n_images": g.size()})
        for c in cols:
            out[c] = g[c].sum()
        return out.reset_index()

    aggs = [Sum("n_images", alias_name="n_images")] + [
        Sum(c, alias_name=c) for c in cols]
    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(*aggs)
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ["n_images"] + cols:
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images"] + cols]


# --------------------------------------------------------------------------
# Token dispersion (Church-Gale burstiness) census (q440)
# --------------------------------------------------------------------------

_DISPERSION_SQL = """
WITH tok AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '[a-z]+')) AS t
    FROM documents
), cnt AS (
    SELECT t, doc_id, COUNT(*) AS c FROM tok GROUP BY t, doc_id
), agg AS (
    SELECT t, COUNT(*) AS n_docs, SUM(c) AS total_n,
           SUM(c * c) AS sum_sq
    FROM cnt GROUP BY t
), d AS (SELECT COUNT(*) AS nd FROM documents)
SELECT t AS token,
       CAST(n_docs AS BIGINT) AS n_docs,
       CAST(total_n AS BIGINT) AS total_n,
       CAST(sum_sq AS BIGINT) AS sum_sq,
       CAST((nd * sum_sq - total_n * total_n) * 1000000
            // (nd * total_n) AS BIGINT) AS fano_ppm
FROM agg, d
ORDER BY total_n DESC, token
LIMIT 10
"""


@query("q440_token_dispersion", sql=_DISPERSION_SQL)
def q440_token_dispersion(sf_dir: str):
    """Church-Gale token burstiness for the 10 heaviest tokens — the
    Fano factor (variance-to-mean, zeros included) of per-document
    counts, exact in ppm via the clear-the-mean identity
    (D·Σc² − total²)·10⁶ // (D·total): content words clump
    (Fano ≫ 1), function words spread (≈ 1) — the IR dispersion
    statistic complementing q434's frequency-spectrum head and
    q160's TEMPORAL burstiness.  Plan: (token, doc) count combiner,
    ONE exchange, token-level second combiner, top-10 driver pick.
    Output: (token, n_docs, total_n, sum_sq, fano_ppm)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs_total = int(_read(sf_dir, "documents", ["doc_id"]).count())

    def partial(t: pa.Table) -> pd.DataFrame:
        from collections import Counter

        c: Counter = Counter()
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            for tok in _TOKEN_RE.findall((text or "").lower()):
                c[(tok, did)] += 1
        return pd.DataFrame(
            [(tok, did, n) for (tok, did), n in c.items()],
            columns=["token", "doc_id", "pn"],
        )

    from texrex_ray.ops.aggregate import bucketed_groupby

    # (token, doc) keys ≈ rows: bucketed combines end-to-end — the native
    # sort aggregate measured 12 s at sf0.1, and the pair table never
    # lands on the driver (only the token-sized second combine does)
    cnt = bucketed_groupby(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["token", "doc_id"],
        lambda g: g.groupby(["token", "doc_id"], as_index=False)["pn"]
        .sum().rename(columns={"pn": "c"}),
        expected_rows=n_docs_total * 200,
    )

    def tok_combine(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(c=g["c"].astype("int64"), c2=g["c"].astype("int64") ** 2)
        gg = g.groupby("token")
        return pd.DataFrame({
            "n_docs": gg.size(),
            "total_n": gg["c"].sum(),
            "sum_sq": gg["c2"].sum(),
        }).reset_index()

    agg = bucketed_groupby(
        cnt, "token", tok_combine, expected_rows=n_docs_total * 200
    ).to_pandas()
    agg = agg.sort_values(["total_n", "token"],
                          ascending=[False, True]).head(10)
    agg["fano_ppm"] = [
        (n_docs_total * int(sq) - int(tn) ** 2) * 1_000_000
        // (n_docs_total * int(tn))
        for sq, tn in zip(agg["sum_sq"], agg["total_n"])
    ]
    out = agg.reset_index(drop=True)
    for c in ("n_docs", "total_n", "sum_sq", "fano_ppm"):
        out[c] = out[c].astype("int64")
    return out[["token", "n_docs", "total_n", "sum_sq", "fano_ppm"]]


# --------------------------------------------------------------------------
# Line-number contiguity integrity audit (q441)
# --------------------------------------------------------------------------

_LINENO_SQL = """
WITH o AS (
    SELECT l_orderkey, MIN(l_linenumber) AS mn, MAX(l_linenumber) AS mx,
           COUNT(*) AS c, COUNT(DISTINCT l_linenumber) AS dc
    FROM lineitem GROUP BY l_orderkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CASE WHEN mn = 1 AND mx = c AND dc = c
                THEN 1 ELSE 0 END) AS BIGINT) AS n_contiguous,
       CAST(MAX(c) AS BIGINT) AS max_lines,
       CAST(SUM(c) AS BIGINT) AS n_lines
FROM o
"""


@query("q441_lineno_integrity", sql=_LINENO_SQL)
def q441_lineno_integrity(sf_dir: str):
    """Line-number contiguity audit — per order, are the lineitem
    linenumbers exactly 1..n with no gaps or duplicates (mn=1, mx=c,
    distinct=c): the ingestion-integrity rule complementing q379's FK
    checks (orphans) with intra-group sequence integrity — a loader
    that drops or double-writes rows breaks it first.  Plan: the
    per-order check needs exact DISTINCT within the group, so ONE
    bucketed per-order combine does min/max/count/nunique together;
    the verdict sum is order-sized.  Output: (n_orders, n_contiguous,
    max_lines, n_lines)."""
    from texrex_ray.ops.aggregate import bucketed_groupby

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])

    def per_order(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey")["l_linenumber"]
        out = pd.DataFrame({
            "mn": g.min(), "mx": g.max(), "c": g.size(),
            "dc": g.nunique(),
        }).reset_index()
        return out

    orders = bucketed_groupby(
        li, ["l_orderkey"], per_order, n_buckets=8
    ).to_pandas()
    ok = ((orders["mn"] == 1) & (orders["mx"] == orders["c"])
          & (orders["dc"] == orders["c"]))
    return pd.DataFrame([{
        "n_orders": len(orders),
        "n_contiguous": int(ok.sum()),
        "max_lines": int(orders["c"].max()),
        "n_lines": int(orders["c"].sum()),
    }]).astype("int64")


# --------------------------------------------------------------------------
# Cross-modal Kendall tau: caption verbosity vs image size (q442)
# --------------------------------------------------------------------------

_XTAU_SQL = (
    "SELECT n_images, n_conc, n_disc, tau_a_ppm FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/xtau_sf0.01.parquet')"
)


@query("q442_crossmodal_tau", sql=_XTAU_SQL)
def q442_crossmodal_tau(sf_dir: str):
    """Cross-modal Kendall tau-a: does caption verbosity (character
    length) track image size (pixel count)?  The metadata-level
    alignment audit (q369 correlates pixels with caption CONTENT;
    this checks the cheaper length/size association used to flag
    auto-generated captions).  Pure metadata — no decode: q431's
    integer pair counting on (w·h, len(caption)); image-count-sized
    driver pair scan over the column-pruned projection.  Output:
    (n_images, n_conc, n_disc, tau_a_ppm)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table",
                     columns=["image_id", "w", "h", "caption"])

    def partial(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({
            "image_id": t["image_id"].to_pylist(),
            "px": (pc.multiply(pc.cast(t["w"], pa.int64()),
                               pc.cast(t["h"], pa.int64()))).to_pylist(),
            "cl": [len(c) for c in t["caption"].to_pylist()],
        })

    im = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
          .sort_values("image_id").reset_index(drop=True))
    px = [int(v) for v in im["px"]]
    cl = [int(v) for v in im["cl"]]
    n = len(px)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (px[i] - px[j]) * (cl[i] - cl[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
    pairs = n * (n - 1) // 2
    num = (conc - disc) * 1_000_000
    tau = abs(num) // pairs * (1 if num >= 0 else -1)
    return pd.DataFrame([{
        "n_images": n,
        "n_conc": conc,
        "n_disc": disc,
        "tau_a_ppm": tau,
    }]).astype("int64")


# --------------------------------------------------------------------------
# Crest-factor (PAPR) census over the audio payload (q443)
# --------------------------------------------------------------------------

_CREST_SQL = (
    "SELECT fmt, n_clips, n_samples, sum_energy, min_crest_ppm, "
    "max_crest_ppm FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/crest_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q443_crest_factor", sql=_CREST_SQL)
def q443_crest_factor(sf_dir: str):
    """Peak-to-average power (crest) census per audio format — the
    dynamic-range statistic mastering pipelines gate on, emitted
    division-free (inverse crest = Σx²·10⁶ // (n·peak²): pure tone
    500 000, constant 10⁶, heavy-tailed ≪) so DuckDB hash-compares
    exactly.  Whole-array numpy in the actor pool
    (stages/av.py::CrestFactor); four ints per clip shuffle.
    Oracle: committed fixture from the INDEPENDENT per-sample scalar
    walk twin.  Output: (fmt, n_clips, n_samples, sum_energy,
    min_crest_ppm, max_crest_ppm)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import CrestFactor

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        CrestFactor, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_samples", "energy", "crest_inv_ppm"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_samples": g["n_samples"].sum(),
            "sum_energy": g["energy"].sum(),
            "min_crest_ppm": g["crest_inv_ppm"].min(),
            "max_crest_ppm": g["crest_inv_ppm"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_samples", alias_name="n_samples"),
            Sum("sum_energy", alias_name="sum_energy"),
            Min("min_crest_ppm", alias_name="min_crest_ppm"),
            Max("max_crest_ppm", alias_name="max_crest_ppm"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_samples", "sum_energy", "min_crest_ppm",
              "max_crest_ppm"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_samples", "sum_energy",
                "min_crest_ppm", "max_crest_ppm"]]


# --------------------------------------------------------------------------
# Byte-bigram structure census over the raw payload (q444)
# --------------------------------------------------------------------------

_BIGRAMS_SQL = (
    "SELECT fmt, n_images, n_pairs, sum_distinct_pairs, max_top_count "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/bigrams_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q444_byte_bigrams", sql=_BIGRAMS_SQL)
def q444_byte_bigrams(sf_dir: str):
    """Second-order byte-structure census of the RAW payload per
    format — distinct adjacent byte pairs + the heaviest pair: where
    q423's first-order histogram sees symbol balance, bigrams see
    SEQUENTIAL structure (RLE streams reuse few pairs, entropy-coded
    streams cover the 65536 space) — the format-fingerprinting
    complement to q206/q289.  One 16-bit-packed bincount per payload
    in the actor pool (stages/images.py::ByteBigrams); bytes never
    leave the actor.  Oracle: committed fixture from the INDEPENDENT
    per-pair dict twin.  Output: (fmt, n_images, n_pairs,
    sum_distinct_pairs, max_top_count)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import ByteBigrams

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        ByteBigrams, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_pairs", "n_distinct_pairs", "top_count"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_pairs": g["n_pairs"].sum(),
            "sum_distinct_pairs": g["n_distinct_pairs"].sum(),
            "max_top_count": g["top_count"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_pairs", alias_name="n_pairs"),
            Sum("sum_distinct_pairs", alias_name="sum_distinct_pairs"),
            Max("max_top_count", alias_name="max_top_count"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_pairs", "sum_distinct_pairs",
              "max_top_count"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_pairs", "sum_distinct_pairs",
                "max_top_count"]]


# --------------------------------------------------------------------------
# Loudness-range (LRA-lite) census over the audio payload (q445)
# --------------------------------------------------------------------------

_LRA_SQL = (
    "SELECT fmt, n_clips, n_frames, sum_lra, max_lra FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/lra_sf0.01.parquet') ORDER BY fmt"
)


@query("q445_loudness_range", sql=_LRA_SQL)
def q445_loudness_range(sf_dir: str):
    """Loudness-range census per audio format (LRA-lite) — the spread
    between the 10th and 95th percentile of 20 ms frame energies
    (nearest-rank taps, a fixed integer spec): what broadcast
    normalization actually gates on, invisible to q443's single-peak
    crest and q395's binary activity.  Frame energies are one
    reshape-reduce, the two taps come from np.partition (no full
    sort) in the actor pool (stages/av.py::LoudnessRange); two ints
    per clip shuffle.  Oracle: committed fixture from the INDEPENDENT
    sorted-list twin.  Output: (fmt, n_clips, n_frames, sum_lra,
    max_lra)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import LoudnessRange

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        LoudnessRange, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_frames", "lra_e"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_frames": g["n_frames"].sum(),
            "sum_lra": g["lra_e"].sum(),
            "max_lra": g["lra_e"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_frames", alias_name="n_frames"),
            Sum("sum_lra", alias_name="sum_lra"),
            Max("max_lra", alias_name="max_lra"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_frames", "sum_lra", "max_lra"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_frames", "sum_lra", "max_lra"]]


# --------------------------------------------------------------------------
# Heaviest day-over-day volume change per event type (q446)
# --------------------------------------------------------------------------

_HEAVY_CHANGE_SQL = """
WITH daily AS (
    SELECT event_type, CAST(ts AS DATE) AS d,
           CAST(COUNT(*) AS BIGINT) AS c
    FROM events GROUP BY event_type, CAST(ts AS DATE)
), delta AS (
    SELECT event_type, d, c,
           c - LAG(c) OVER (PARTITION BY event_type ORDER BY d)
               AS chg
    FROM daily
), ranked AS (
    SELECT event_type, d, c, chg,
           ROW_NUMBER() OVER (
               PARTITION BY event_type
               ORDER BY abs(chg) DESC, d
           ) AS rn
    FROM delta WHERE chg IS NOT NULL
)
SELECT event_type,
       CAST(epoch_us(CAST(d AS TIMESTAMP)) AS BIGINT) AS day_us,
       CAST(chg AS BIGINT) AS chg,
       CAST(c AS BIGINT) AS day_count
FROM ranked WHERE rn = 1 ORDER BY event_type
"""


@query("q446_heavy_change", sql=_HEAVY_CHANGE_SQL)
def q446_heavy_change(sf_dir: str):
    """Heaviest day-over-day volume change per event type — the
    anomaly-triage primitive (the single day each stream moved most,
    earliest day breaking |change| ties): complements q178/q285's
    cumulative CUSUM with the pointwise extreme.  Plan: ONE daily
    (type, day) count combiner, LAG + argmax on the days-sized result
    table at the driver.  Output: (event_type, day_us, chg,
    day_count)."""
    events = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["ts"].astype("datetime64[us]").dt.normalize()
        g = pd.DataFrame({"event_type": df["event_type"], "d": d}
                         ).groupby(["event_type", "d"])
        return pd.DataFrame({"pn": g.size()}).reset_index()

    daily = (
        events.map_batches(partial, batch_format="pandas")
        .groupby(["event_type", "d"])
        .aggregate(Sum("pn", alias_name="c"))
        .to_pandas()
        .sort_values(["event_type", "d"])
    )
    rows = []
    for et, sub in daily.groupby("event_type"):
        c = sub["c"].to_numpy()
        ds_us = sub["d"].astype("datetime64[us]").astype("int64").to_numpy()
        chg = c[1:] - c[:-1]
        k = int(np.lexsort((ds_us[1:], -np.abs(chg)))[0])
        rows.append((et, int(ds_us[1 + k]), int(chg[k]), int(c[1 + k])))
    out = pd.DataFrame(rows, columns=["event_type", "day_us", "chg",
                                      "day_count"]
                       ).sort_values("event_type").reset_index(drop=True)
    for c2 in ("day_us", "chg", "day_count"):
        out[c2] = out[c2].astype("int64")
    return out


# --------------------------------------------------------------------------
# Quadtree homogeneity decomposition census (q447)
# --------------------------------------------------------------------------

_QUADTREE_SQL = (
    "SELECT fmt, n_images, sum_leaves, max_depth, n_px "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/quadtree_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q447_quadtree_leaves", sql=_QUADTREE_SQL)
def q447_quadtree_leaves(sf_dir: str):
    """Quadtree homogeneity decomposition census per format —
    recursively quarter luminance until tiles are homogeneous
    (max−min ≤ 24) or a dimension goes odd: graphics collapse into a
    few large leaves, texture shatters — the ADAPTIVE-tiling
    complement to q365's fixed grid and the structure measure behind
    BSP coders.  No recursion in the stage: min/max PYRAMIDS by
    pairwise reduction + a top-down mask walk count
    (stages/images.py::QuadtreeLeaves); three ints per image shuffle.
    Oracle: committed fixture from the INDEPENDENT explicit RECURSIVE
    splitter twin.  Output: (fmt, n_images, sum_leaves, max_depth,
    n_px)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import QuadtreeLeaves

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        QuadtreeLeaves, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "n_leaves", "max_depth", "n_px"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "sum_leaves": g["n_leaves"].sum(),
            "max_depth": g["max_depth"].max(),
            "n_px": g["n_px"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("sum_leaves", alias_name="sum_leaves"),
            Max("max_depth", alias_name="max_depth"),
            Sum("n_px", alias_name="n_px"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "sum_leaves", "max_depth", "n_px"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "sum_leaves", "max_depth", "n_px"]]


# --------------------------------------------------------------------------
# Pair-sum distribution via exact NTT convolution (q448)
# --------------------------------------------------------------------------

_PAIRSUM_SQL = """
WITH h AS (
    SELECT CAST(round(l_quantity) AS BIGINT) AS q,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM lineitem GROUP BY 1
)
SELECT CAST(a.q + b.q AS BIGINT) AS s,
       CAST(SUM(a.n * b.n)
            - SUM(CASE WHEN a.q = b.q THEN a.n ELSE 0 END)
            AS BIGINT) AS n_pairs
FROM h a, h b
GROUP BY a.q + b.q
ORDER BY n_pairs DESC, s
LIMIT 5
"""


@query("q448_pair_sum_ntt", sql=_PAIRSUM_SQL)
def q448_pair_sum_ntt(sf_dir: str):
    """Distribution of pairwise quantity SUMS over all ordered pairs
    (i ≠ j), computed as an EXACT convolution of the value histogram
    with itself via the number-theoretic transform (ops/ntt.py,
    GF(998244353)) — the O(V log V) path that replaces the O(n²)
    self-join for sum/difference-distribution statistics (collision
    analysis, birthday bounds, load modeling).  The n² pair space
    never materializes: ONE value-histogram combiner exchange, the
    NTT runs on the V-sized histogram at the driver, self-pairs
    subtract off the diagonal.  Top-5 sums, smallest-sum tie-break.
    Oracle: the same statistic from DuckDB's histogram cross-product
    (V² = 2500 rows — exact, no NTT).  Output: (s, n_pairs)."""
    from texrex_ray.ops.ntt import convolve_exact

    li = _read(sf_dir, "lineitem", ["l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = np.round(df["l_quantity"].to_numpy()).astype(np.int64)
        v, n = np.unique(q, return_counts=True)
        return pd.DataFrame({"q": v, "pn": n})

    hist = (
        li.map_batches(partial, batch_format="pandas")
        .groupby("q")
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    vmax = int(hist["q"].max())
    h = [0] * (vmax + 1)
    for qv, nv in zip(hist["q"], hist["n"]):
        h[int(qv)] = int(nv)
    conv = convolve_exact(h, h)
    rows = []
    for s2 in range(len(conv)):
        np_ = conv[s2]
        if s2 % 2 == 0 and s2 // 2 <= vmax:
            np_ -= h[s2 // 2]  # remove i == j self-pairs
        if np_ > 0:
            rows.append((s2, np_))
    rows.sort(key=lambda r: (-r[1], r[0]))
    out = pd.DataFrame(rows[:5], columns=["s", "n_pairs"])
    return out.astype("int64")


# --------------------------------------------------------------------------
# Round-number bias census over event values (q449)
# --------------------------------------------------------------------------

_ROUND_BIAS_SQL = """
WITH v AS (
    SELECT CAST(round(value * 100) AS BIGINT) AS c FROM events
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_values,
       CAST(SUM(CASE WHEN c % 100 = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_whole,
       CAST(SUM(CASE WHEN c % 50 = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_half,
       CAST(SUM(CASE WHEN c % 10 = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dime,
       CAST(SUM(CASE WHEN c % 100 = 99 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_psych
FROM v
"""


@query("q449_round_number_bias", sql=_ROUND_BIAS_SQL)
def q449_round_number_bias(sf_dir: str):
    """Round-number bias census over event values — shares of whole-
    unit (c%100=0), half (c%50=0), dime (c%10=0) and .99 'psychological'
    endings: the price-integrity twin of q190's Benford first-digit
    audit (synthetic or fabricated value columns betray themselves in
    the ENDING digits long before the leading ones).  ONE vectorized
    modulo pass per batch, four counters shuffle.  Output: (n_values,
    n_whole, n_half, n_dime, n_psych)."""
    events = _read(sf_dir, "events", ["value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["value"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame([{
            "n_values": len(c),
            "n_whole": int((c % 100 == 0).sum()),
            "n_half": int((c % 50 == 0).sum()),
            "n_dime": int((c % 10 == 0).sum()),
            "n_psych": int((c % 100 == 99).sum()),
        }])

    parts = events.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame([parts.sum()]).astype("int64")[
        ["n_values", "n_whole", "n_half", "n_dime", "n_psych"]]


# --------------------------------------------------------------------------
# Exposure-clipping census over the image payload (q450)
# --------------------------------------------------------------------------

_EXPOSURE_SQL = (
    "SELECT fmt, n_images, n_px, sum_under, sum_over, max_used_range "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/exposure_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q450_exposure_clipping", sql=_EXPOSURE_SQL)
def q450_exposure_clipping(sf_dir: str):
    """Exposure-clipping census per format — crushed shadows
    (lum ≤ 15), blown highlights (lum ≥ 750) and the nearest-rank
    p1-p99 used dynamic range from ONE histogram per image: the
    photographic curation gate (complements q279's equalization map
    and q265's blur with the exposure axis).  Histogram + two
    searchsorted taps in the actor pool
    (stages/images.py::ExposureClipping); four ints per image
    shuffle.  Oracle: committed fixture from the INDEPENDENT
    sorted-list percentile twin (no histogram).  Output: (fmt,
    n_images, n_px, sum_under, sum_over, max_used_range)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import ExposureClipping

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        ExposureClipping, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "n_px", "n_under", "n_over", "used_range"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_px": g["n_px"].sum(),
            "sum_under": g["n_under"].sum(),
            "sum_over": g["n_over"].sum(),
            "max_used_range": g["used_range"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_px", alias_name="n_px"),
            Sum("sum_under", alias_name="sum_under"),
            Sum("sum_over", alias_name="sum_over"),
            Max("max_used_range", alias_name="max_used_range"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_px", "sum_under", "sum_over",
              "max_used_range"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_px", "sum_under", "sum_over",
                "max_used_range"]]


# --------------------------------------------------------------------------
# Order-velocity anomaly census (q451)
# --------------------------------------------------------------------------

_VELOCITY_SQL = """
WITH cd AS (
    SELECT o_custkey, o_orderdate, COUNT(*) AS c
    FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_cust_days,
       CAST(SUM(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_multi_days,
       CAST(MAX(c) AS BIGINT) AS max_per_day,
       CAST(SUM(c) AS BIGINT) AS n_orders
FROM cd
"""


@query("q451_order_velocity", sql=_VELOCITY_SQL)
def q451_order_velocity(sf_dir: str):
    """Order-velocity anomaly census — customer-days carrying more
    than one order, and the hottest single customer-day: the fraud/
    bot-rate signal behind per-entity rate limits (complements q410's
    global modal user with the TIME-LOCAL concentration the limiter
    actually keys on).  ONE (customer, day) count combiner exchange,
    verdict on the cust-day-sized result.  Output: (n_cust_days,
    n_multi_days, max_per_day, n_orders)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"].astype("datetime64[us]")
        g = pd.DataFrame({"ck": df["o_custkey"], "d": d}
                         ).groupby(["ck", "d"])
        return pd.DataFrame({"pn": g.size()}).reset_index()

    from texrex_ray.ops.aggregate import bucketed_groupby

    n_rows = orders.count()  # metadata-only on parquet

    # stage 1: PURE per-key combine (bucketed_groupby's contract — one
    # output row per (ck, d) under any future bucket splitting); the
    # native sort aggregate + full cust-day driver pull measured 17 s
    cd = bucketed_groupby(
        orders.map_batches(partial, batch_format="pandas"),
        ["ck", "d"],
        lambda g: g.groupby(["ck", "d"], as_index=False)["pn"].sum()
        .rename(columns={"pn": "c"}),
        expected_rows=n_rows,
    )

    # stage 2: verdict partials per OUTPUT block — exact regardless of
    # blocking because stage 1 emits each key exactly once
    def verdict_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_cd": [len(df)],
            "n_multi": [int((df["c"] > 1).sum())],
            "mx": [int(df["c"].max()) if len(df) else 0],
            "tot": [int(df["c"].sum())],
        })

    parts = cd.map_batches(
        verdict_partial, batch_format="pandas"
    ).to_pandas()
    return pd.DataFrame([{
        "n_cust_days": int(parts["n_cd"].sum()),
        "n_multi_days": int(parts["n_multi"].sum()),
        "max_per_day": int(parts["mx"].max()),
        "n_orders": int(parts["tot"].sum()),
    }]).astype("int64")


# --------------------------------------------------------------------------
# Channel-spread saturation census (q452)
# --------------------------------------------------------------------------

_SATURATION_SQL = (
    "SELECT fmt, n_images, n_px, sum_sat, sum_sat2, n_gray "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/saturation_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q452_saturation_census", sql=_SATURATION_SQL)
def q452_saturation_census(sf_dir: str):
    """Channel-spread saturation census per format — per pixel
    max(R,G,B) − min(R,G,B) raw moments + near-gray count: the
    HSV-free saturation gate complementing q413's OPPONENT moments
    (rg/yb cancel on balanced mixtures where the channel spread
    cannot — the two together pin the chroma character).  Whole-array
    numpy in the actor pool (stages/images.py::SaturationCensus);
    four ints per image shuffle.  Oracle: committed fixture from the
    INDEPENDENT per-pixel scalar twin.  Output: (fmt, n_images, n_px,
    sum_sat, sum_sat2, n_gray)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import SaturationCensus

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        SaturationCensus, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "n_px", "sum_sat", "sum_sat2", "n_gray"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_px": g["n_px"].sum(),
            "sum_sat": g["sum_sat"].sum(),
            "sum_sat2": g["sum_sat2"].sum(),
            "n_gray": g["n_gray"].sum(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_px", alias_name="n_px"),
            Sum("sum_sat", alias_name="sum_sat"),
            Sum("sum_sat2", alias_name="sum_sat2"),
            Sum("n_gray", alias_name="n_gray"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_px", "sum_sat", "sum_sat2", "n_gray"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_px", "sum_sat", "sum_sat2",
                "n_gray"]]


# --------------------------------------------------------------------------
# Zero-crossing interval census over the audio payload (q453)
# --------------------------------------------------------------------------

_ZC_SQL = (
    "SELECT fmt, n_clips, n_intervals, sum_modal_n, max_gap "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/zc_intervals_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q453_zc_intervals", sql=_ZC_SQL)
def q453_zc_intervals(sf_dir: str):
    """Zero-crossing INTERVAL census per audio format — the gap
    distribution between successive sign changes (modal interval count
    + max gap): a pure tone concentrates on half its period, noise
    spreads — the period-DISTRIBUTION complement to q386's single ACF
    argmax and the global crossing RATE.  One sign-diff + one bincount
    per clip (stages/av.py::ZeroCrossIntervals); three ints per clip
    shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-sample walk + dict-census twin.  Output: (fmt, n_clips,
    n_intervals, sum_modal_n, max_gap)."""
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.stages.av import ZeroCrossIntervals

    n_aud, _ = _av_n(sf_dir)
    d = av_fixture(n=n_aud, seed=42)
    ds = ray.data.read_parquet(f"{d}/audio.parquet", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        ZeroCrossIntervals, concurrency=2, batch_size=64,
        batch_format="pyarrow"
    ).select_columns(["fmt", "n_intervals", "modal_n", "max_gap"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_clips": g.size(),
            "n_intervals": g["n_intervals"].sum(),
            "sum_modal_n": g["modal_n"].sum(),
            "max_gap": g["max_gap"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_clips", alias_name="n_clips"),
            Sum("n_intervals", alias_name="n_intervals"),
            Sum("sum_modal_n", alias_name="sum_modal_n"),
            Max("max_gap", alias_name="max_gap"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_clips", "n_intervals", "sum_modal_n", "max_gap"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_clips", "n_intervals", "sum_modal_n",
                "max_gap"]]


# --------------------------------------------------------------------------
# Subset-sum reachability via bitset DP over part sizes (q454)
# --------------------------------------------------------------------------

_SUBSET_SQL = (
    "SELECT n_items, bound, n_reachable, min_unreachable, "
    "max_reachable FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/subset_sf0.01.parquet')"
)

_SUBSET_CAP = 500
_SUBSET_SIZE_MIN = 25


@query("q454_subset_sums", sql=_SUBSET_SQL)
def q454_subset_sums(sf_dir: str):
    """Exact subset-sum reachability over the LARGE part sizes
    (≥ 25, bound 500 — the restriction gives the reachability set
    structure: the 1..24 gap) — the feasibility companion to q424's
    FFD packing ('can a shipment hit capacity exactly?').  The DP is
    a BITSET: reachable sums live in uint64 words, each item is one
    whole-array shift-OR (ops-level vectorization of the classic
    pseudo-polynomial DP; duplicate sizes short-circuit once the mask
    saturates).  Sizes are column-pruned + predicate-filtered at the
    read; the DP itself is bound-sized driver work.  Oracle:
    committed fixture from the INDEPENDENT python-SET DP twin.
    Output: (n_items, bound, n_reachable, min_unreachable,
    max_reachable)."""
    parts = _read(sf_dir, "part", ["p_size"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["p_size"].to_numpy().astype(np.int64)
        v = v[v >= _SUBSET_SIZE_MIN]
        vals, cnts = np.unique(v, return_counts=True)
        return pd.DataFrame({"sz": vals, "pn": cnts})

    hist = (
        parts.map_batches(partial, batch_format="pandas")
        .groupby("sz")
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    CAP = _SUBSET_CAP
    nwords = CAP // 64 + 1
    mask = np.zeros(nwords, np.uint64)
    mask[0] = np.uint64(1)  # sum 0
    full_bits = CAP + 1

    n_items = 0
    for sz, cnt in zip(hist["sz"], hist["n"]):
        n_items += int(cnt)
        # using an item of size s at most min(cnt, CAP//s) times
        for _ in range(min(int(cnt), CAP // int(sz) + 1)):
            shifted = _bitset_shift_left(mask, int(sz), nwords)
            new = mask | shifted
            if (new == mask).all():
                break
            mask = new
    # clear bits above CAP
    excess = nwords * 64 - full_bits
    if excess:
        keep = np.uint64((1 << (64 - excess)) - 1)
        mask[-1] &= keep
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")[:full_bits]
    reach = np.nonzero(bits)[0]
    missing = np.setdiff1d(np.arange(1, CAP + 1), reach)
    return pd.DataFrame([{
        "n_items": n_items,
        "bound": CAP,
        "n_reachable": len(reach) - 1,  # excludes the empty sum 0
        "min_unreachable": int(missing[0]) if len(missing) else 0,
        "max_reachable": int(reach.max()),
    }]).astype("int64")


def _bitset_shift_left(mask: np.ndarray, k: int, nwords: int) -> np.ndarray:
    """Shift a little-endian uint64 bitset left by k bits."""
    wshift, bshift = divmod(k, 64)
    out = np.zeros_like(mask)
    if wshift < nwords:
        out[wshift:] = mask[: nwords - wshift]
    if bshift:
        carry = np.zeros_like(out)
        carry[1:] = out[:-1] >> np.uint64(64 - bshift)
        out = (out << np.uint64(bshift)) | carry
    return out


# --------------------------------------------------------------------------
# Per-tile distinct-value complexity census (q455)
# --------------------------------------------------------------------------

_TILEDISTINCT_SQL = (
    "SELECT fmt, n_images, n_tiles, sum_distinct, max_distinct "
    "FROM read_parquet("
    "'/root/repo/tests/fixtures/oracle/tiledistinct_sf0.01.parquet') "
    "ORDER BY fmt"
)


@query("q455_tile_distinct", sql=_TILEDISTINCT_SQL)
def q455_tile_distinct(sf_dir: str):
    """Per-8x8-tile distinct-luminance census per format — the
    quantization-aware complexity signal q365's variance misses (a
    2-value checkerboard: huge variance, distinct=2; a smooth ramp:
    low variance, distinct≈64) and the local refinement of q423's
    global byte histogram.  Whole-array: per-tile sort + strict-
    increase count (stages/images.py::TileDistinct); three ints per
    image shuffle.  Oracle: committed fixture from the INDEPENDENT
    per-tile set() twin.  Output: (fmt, n_images, n_tiles,
    sum_distinct, max_distinct)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.stages.images import TileDistinct

    d = fixture_path(n=300, seed=42)
    ds = read_images(f"{d}/images_table", columns=["bytes", "fmt"])
    scored = ds.map_batches(
        TileDistinct, concurrency=2, batch_size=64, batch_format="pyarrow"
    ).select_columns(["fmt", "n_tiles", "sum_distinct", "max_distinct"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fmt")
        return pd.DataFrame({
            "n_images": g.size(),
            "n_tiles": g["n_tiles"].sum(),
            "sum_distinct": g["sum_distinct"].sum(),
            "max_distinct": g["max_distinct"].max(),
        }).reset_index()

    out = (
        scored.map_batches(partial, batch_format="pandas")
        .groupby("fmt")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_tiles", alias_name="n_tiles"),
            Sum("sum_distinct", alias_name="sum_distinct"),
            Max("max_distinct", alias_name="max_distinct"),
        )
        .to_pandas()
        .sort_values("fmt")
        .reset_index(drop=True)
    )
    for c in ("n_images", "n_tiles", "sum_distinct", "max_distinct"):
        out[c] = out[c].astype("int64")
    return out[["fmt", "n_images", "n_tiles", "sum_distinct",
                "max_distinct"]]


# --------------------------------------------------------------------------
# Order -> ship lead-time census (q456)
# --------------------------------------------------------------------------

_LEADTIME_SQL = """
WITH lt AS (
    SELECT date_diff('day', CAST(o_orderdate AS DATE),
                     CAST(l_shipdate AS DATE)) AS days
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(MIN(days) AS BIGINT) AS min_days,
       CAST(MAX(days) AS BIGINT) AS max_days,
       CAST(SUM(days) AS BIGINT) AS sum_days,
       CAST(SUM(CASE WHEN days > 90 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_late
FROM lt
"""


@query("q456_lead_time", sql=_LEADTIME_SQL)
def q456_lead_time(sf_dir: str):
    """Order→ship lead-time census — exact day gaps between order
    placement and line shipment (min/max/sum + the >90-day late
    share): the fulfillment-SLA audit on the big-big
    lineitem x orders join, resolved here by broadcasting the
    orderkey→orderdate map ONCE via ray.put (orders is the small
    side; at page scale swap to ops/join.shuffle_join on orderkey —
    the census partial is unchanged).  Output: (n_lines, min_days,
    max_days, sum_days, n_late)."""
    odates = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate"]).to_pandas()
    omap_ref = ray.put(dict(zip(
        odates["o_orderkey"].astype(int),
        odates["o_orderdate"].astype("datetime64[us]").astype("int64"),
    )))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    US_PER_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        omap = ray.get(omap_ref)
        ship = df["l_shipdate"].astype("datetime64[us]").astype("int64")
        odate = df["l_orderkey"].map(omap).astype("int64")
        days = (ship - odate) // US_PER_DAY
        return pd.DataFrame([{
            "n_lines": len(days),
            "min_days": int(days.min()),
            "max_days": int(days.max()),
            "sum_days": int(days.sum()),
            "n_late": int((days > 90).sum()),
        }])

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame([{
        "n_lines": int(parts["n_lines"].sum()),
        "min_days": int(parts["min_days"].min()),
        "max_days": int(parts["max_days"].max()),
        "sum_days": int(parts["sum_days"].sum()),
        "n_late": int(parts["n_late"].sum()),
    }]).astype("int64")
