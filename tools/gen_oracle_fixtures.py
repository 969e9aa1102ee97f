"""Generate committed oracle-fixture parquet tables under tests/fixtures/oracle/.

Some operators are not ANSI-SQL-expressible from the raw tables (hash
families, crawl policy, profile math).  For those, the DuckDB oracle reads
a committed fixture table and performs the REST of the computation
independently in SQL (e.g. brute-force O(n²) joins over a signature table
that verify our LSH candidate generation), or compares against an
independently-implemented expected output (e.g. the sequential ClaraX
oracle in crawl/oracle.py).

Fixtures are generated from the driver's deterministic sf0.01 tables —
the scale factor the driver's correctness gate runs at — and committed;
re-run this script if the testdata generator ever changes::

    python tools/gen_oracle_fixtures.py

Ray is initialised here (script owns its session, per the driver contract).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.01"
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tests", "fixtures", "oracle")


def gen_simhash_signatures() -> None:
    """(doc_id, simhash as BIGINT) over sf0.01 documents — the oracle does
    the brute-force Hamming join in SQL, independently verifying the
    block-LSH candidate generation."""
    import pandas as pd

    from texrex_ray.functions.hashing import simhash64
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE

    df = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    toks = [LATIN_TOKEN_RE.findall(s.lower()) for s in df["text"]]
    grams = [[" ".join(tk[i : i + 3]) for i in range(max(0, len(tk) - 2))] for tk in toks]
    sig = simhash64(grams).astype(np.int64)  # reinterpret: DuckDB BIGINT bit ops
    t = pa.table({"doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                  "simhash": pa.array(sig)})
    pq.write_table(t, os.path.join(OUT, "simhash_sig_sf0.01.parquet"))
    print("simhash_sig_sf0.01.parquet:", t.num_rows, "rows")


def gen_crawl_visits() -> None:
    """Expected q21 visit order from the INDEPENDENT sequential ClaraX
    oracle (crawl/oracle.py) — same fixture graph/seed/steps as q21."""
    from texrex_ray.crawl.oracle import clarax_walk
    from texrex_ray.crawl.policy import CrawlConfig
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)
    res = clarax_walk(g, max_steps=150, seed=42, config=CrawlConfig())
    t = pa.table(
        {
            "seq": pa.array([r[0] for r in res.visit_order], pa.int64()),
            "url": pa.array([r[1] for r in res.visit_order], pa.string()),
            "host": pa.array([r[2] for r in res.visit_order], pa.string()),
            "action": pa.array([r[3] for r in res.visit_order], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "crawl_visits_sf0.01.parquet"))
    print("crawl_visits_sf0.01.parquet:", t.num_rows, "rows")


def gen_minhash_tender() -> None:
    """Expected q13 pairs via NAIVE pair counting (dict of shingle→docs,
    strict <200 cap, C(n,2) smaller-first by (n_chars, doc_id), count ≥5)
    — independent of the distributed bucketed-self-join machinery.  The
    Rabin hash itself is pinned by tests/test_rabin.py's scalar
    transcription goldens."""
    from collections import Counter, defaultdict

    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE

    df = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    ).to_pandas()
    toks = [LATIN_TOKEN_RE.findall(s.lower()) for s in df["text"]]
    sig, has_fp = rabin_minhash_signatures(toks, k=100, n=5)
    by_sh = defaultdict(list)
    for i, (did, sz) in enumerate(zip(df["doc_id"], df["n_chars"])):
        if not has_fp[i]:
            continue
        for v in sig[i]:
            by_sh[int(v)].append((int(sz), int(did)))
    cnt: Counter = Counter()
    for docs in by_sh.values():
        if len(docs) < 2 or len(docs) >= 200:
            continue
        docs = sorted(docs)
        for x in range(len(docs)):
            for y in range(x + 1, len(docs)):
                cnt[(docs[x][1], docs[y][1])] += 1
    rows = sorted((a, b, n) for (a, b), n in cnt.items() if n >= 5)
    t = pa.table(
        {
            "id_small": pa.array([r[0] for r in rows], pa.int64()),
            "id_big": pa.array([r[1] for r in rows], pa.int64()),
            "n_shared": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "minhash_tender_sf0.01.parquet"))
    print("minhash_tender_sf0.01.parquet:", t.num_rows, "rows")


def gen_text_assessment() -> None:
    """Expected q24 (pred_lang, badness_bp) by SCALAR per-doc recomputation
    (cleanse → normalize → nfc → tokenize → rel-freqs → assess_multi),
    bypassing the Dataset pipeline composition entirely."""
    from texrex_ray.functions.assess import LanguageProfile, assess_multi
    from texrex_ray.functions.cleanse import cleanse_full
    from texrex_ray.functions.normalize import nfc, normalize_text
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE, rel_freqs, type_counts
    from texrex_ray.sources.profiles import default_profiles

    profs = [LanguageProfile.parse(n, t) for n, t in default_profiles()]
    df = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    ids, langs, bps = [], [], []
    for did, text in zip(df["doc_id"], df["text"]):
        s = nfc(normalize_text(cleanse_full(text or "")[0]))
        toks = LATIN_TOKEN_RE.findall(s)
        lang, b = assess_multi(rel_freqs(type_counts(toks)), profs)
        ids.append(int(did))
        langs.append(lang)
        bps.append(int(np.round(b * 10_000)))
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "pred_lang": pa.array(langs, pa.string()),
            "badness_bp": pa.array(bps, pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "text_assessment_sf0.01.parquet"))
    print("text_assessment_sf0.01.parquet:", t.num_rows, "rows")


def gen_lsh_ann() -> None:
    """Expected q19 via an INDEPENDENT numpy reimplementation of the probe
    plan (same seed/planes): bucket all vectors, per query brute-force the
    probed buckets, top-10 by (sim desc, id asc)."""
    df = pq.read_table(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]).to_pandas()
    ids = df["vec_id"].to_numpy(np.int64)
    m = np.asarray(list(df["embedding"]), dtype=np.float64)
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-300)
    rng = np.random.default_rng(42)
    planes = rng.standard_normal((m.shape[1], 4))
    bucket = (((m @ planes) > 0) * (1 << np.arange(4))).sum(axis=1)
    rows = []
    for q in range(8):
        qi = int(np.flatnonzero(ids == q)[0])
        probe = {int(bucket[qi])} | {int(bucket[qi]) ^ (1 << b) for b in range(4)}
        cand = np.flatnonzero(np.isin(bucket, list(probe)) & (ids != q))
        sims = m[cand] @ m[qi]
        order = np.lexsort((ids[cand], -sims))[:10]
        for rank, j in enumerate(order, 1):
            rows.append((q, int(ids[cand[j]]), rank))
    t = pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "neighbor_id": pa.array([r[1] for r in rows], pa.int64()),
            "rank": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "lsh_ann_sf0.01.parquet"))
    print("lsh_ann_sf0.01.parquet:", t.num_rows, "rows")


def gen_priority_crawl() -> None:
    """Expected q34 visit table (regression pin: the priority engine has no
    independent sequential oracle; determinism across partition counts is
    asserted in tests)."""
    import ray

    from texrex_ray.crawl.priority import PriorityCrawlEngine
    from texrex_ray.sources.webgraph import make_webgraph

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
    g = make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)
    eng = PriorityCrawlEngine(g, n_partitions=4, budget_per_round=16)
    eng.run(max_fetches=120)
    rows = eng.visit_order()
    eng.shutdown()
    t = pa.table(
        {
            "round": pa.array([r[0] for r in rows], pa.int64()),
            "url": pa.array([r[1] for r in rows], pa.string()),
            "host": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "priority_crawl_sf0.01.parquet"))
    print("priority_crawl_sf0.01.parquet:", t.num_rows, "rows")


def _sequential_harvest() -> tuple[list[dict], dict[str, bytes]]:
    """The SEQUENTIAL harvest oracle: replay clarax_walk (crawl/oracle.py)
    on the with_images fixture graph, re-fetch each corpus output URL
    scalar-wise, take the FIRST reference per src in visit/document order,
    and compute dims/fmt/phash from the stored container bytes — no
    distributed engine, no Dataset pipeline, no groupby/bucket machinery.
    Shares only fetch_parse/extract_images and the codec primitives, each
    pinned by its own unit tests.  Returns (rows sorted by image_id,
    src→bytes store)."""
    import hashlib

    from texrex_ray.crawl.fetcher import fetch_parse, plain_pages
    from texrex_ray.crawl.oracle import clarax_walk
    from texrex_ray.crawl.policy import CrawlConfig
    from texrex_ray.functions.hashing import doc_id_for_url
    from texrex_ray.sources.images import MAGIC, decode_image
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(
        n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42, with_images=True
    )
    cfg = CrawlConfig(collect_images=True)
    res = clarax_walk(g, max_steps=150, seed=42, config=cfg)
    pages = plain_pages(g)
    first: dict[str, str] = {}  # src -> winning caption (first in visit order)
    for url in res.outputs:
        for src, caption in fetch_parse(pages, url, cfg).images:
            if src not in first:
                first[src] = caption
    fmt_of = {v: k for k, v in MAGIC.items()}
    rows = []
    for src, caption in first.items():
        raw = g.images.get(src)
        if raw is None:
            continue
        d = hashlib.blake2b(decode_image(raw).tobytes(), digest_size=8).digest()
        rows.append(
            {
                "image_id": doc_id_for_url(src),
                "w": int.from_bytes(raw[4:8], "big"),
                "h": int.from_bytes(raw[8:12], "big"),
                "fmt": fmt_of.get(raw[:4], "unknown"),
                "caption": caption,
                "phash": int.from_bytes(d, "big", signed=True),
                "n_bytes": len(raw),
                "_src": src,
            }
        )
    rows.sort(key=lambda r: r["image_id"])
    return rows, g.images


def gen_image_harvest() -> None:
    """Expected q44 harvest table (see _sequential_harvest)."""
    import pandas as pd

    rows, _store = _sequential_harvest()
    df = pd.DataFrame(rows).drop(columns=["_src"])
    t = pa.Table.from_pandas(df, preserve_index=False)
    t = t.set_column(t.schema.get_field_index("w"), "w", t["w"].cast(pa.int32()))
    t = t.set_column(t.schema.get_field_index("h"), "h", t["h"].cast(pa.int32()))
    pq.write_table(t, os.path.join(OUT, "image_harvest_sf0.01.parquet"))
    print("image_harvest_sf0.01.parquet:", t.num_rows, "rows")


def gen_harvest_pipeline() -> None:
    """Expected q45: the sequential harvest rows pushed scalar-wise through
    the caption-cleanse formulas (cleanse_full → normalize → nfc), the
    decoder stats (mean luminance, float32 like the stage), and keep-first
    phash dedup by (phash, image_id) — bypassing the Dataset pipeline
    composition entirely (the gen_text_assessment approach)."""
    import pandas as pd

    from texrex_ray.functions.cleanse import cleanse_full
    from texrex_ray.functions.normalize import nfc, normalize_text
    from texrex_ray.sources.images import decode_image

    rows, store = _sequential_harvest()
    out_rows = []
    for r in rows:
        cleaned, n_tags, _n_emails, n_uris, _n_hash = cleanse_full(r["caption"] or "")
        cap = nfc(normalize_text(cleaned))
        px = decode_image(store[r["_src"]])
        ok = px.shape == (r["h"], r["w"], 3)
        lum = px.astype(np.float32).mean(axis=2)
        out_rows.append(
            {
                "image_id": r["image_id"],
                "caption": cap,
                "n_tags": int(n_tags),
                "n_uris": int(n_uris),
                "ok": bool(ok),
                "mean_lum_c": int(round(float(lum.mean()) * 100)),
                "phash": r["phash"],
            }
        )
    # keep-first per phash, winner = smallest image_id (pipeline contract)
    df = pd.DataFrame(out_rows).sort_values(["phash", "image_id"])
    df = df.drop_duplicates("phash", keep="first")
    df = df.sort_values("image_id").reset_index(drop=True)
    t = pa.Table.from_pandas(df, preserve_index=False)
    pq.write_table(t, os.path.join(OUT, "harvest_pipeline_sf0.01.parquet"))
    print("harvest_pipeline_sf0.01.parquet:", t.num_rows, "rows")


def gen_geo_blocks() -> None:
    """The synthetic GeoLite-style block table (sf-independent) so the
    DuckDB oracle can perform the same IP range join declaratively."""
    from texrex_ray.stages.geolocate import synthetic_geo_blocks

    starts, ends, locations = synthetic_geo_blocks(n_blocks=64, seed=42)
    t = pa.table(
        {
            "ip_from": pa.array(starts.astype(np.int64)),
            "ip_to": pa.array(ends.astype(np.int64)),
            "country": pa.array([l[0] for l in locations], pa.string()),
            "region": pa.array([l[1] for l in locations], pa.string()),
            "city": pa.array([l[2] for l in locations], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "geo_blocks.parquet"))
    print("geo_blocks.parquet:", t.num_rows, "rows")


def _ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False


def gen_pipeline_pins() -> None:
    """Expected q20/q27/q33 outputs (regression pins: full-pipeline
    compositions with no independent reimplementation; per-stage semantics
    are separately unit-tested)."""
    from texrex_ray.pipelines.queries import QUERIES

    _ray()
    for qname, fname in (
        ("q20_image_pipeline", "image_pipeline_sf0.01.parquet"),
        ("q27_raw_docs_pipeline", "raw_docs_sf0.01.parquet"),
        ("q33_xml_writer", "xml_writer_sf0.01.parquet"),
    ):
        df = QUERIES[qname](SF_DIR)
        t = pa.Table.from_pandas(df, preserve_index=False)
        pq.write_table(t, os.path.join(OUT, fname))
        print(f"{fname}:", t.num_rows, "rows")


def gen_av_features() -> None:
    """Expected q37/q38 outputs, computed scalar-wise from REGENERATED
    PCM/frames — independent of the synthetic containers (encode/decode)
    and of the stage classes in stages/av.py.  Only the generator
    primitives (_synth_pcm / frame construction) and the published output
    formulas are shared."""
    import pandas as pd

    from texrex_ray.sources.av import AUDIO_QUANT, _synth_pcm

    # ---- audio (q37): n=150, seed=42 — must mirror queries._av_n(sf0.01)
    rows = []
    for i in range(150):
        rng = np.random.default_rng(42 * 1_000_003 + i)
        sr = int(rng.choice([8000, 16000]))
        dur = float(rng.uniform(0.2, 1.0))
        pcm = _synth_pcm(rng, int(sr * dur), sr)
        fmt = "ogg" if i % 3 == 0 else "wav"
        q = AUDIO_QUANT[fmt]
        if q > 1:  # what the lossy codec stores, per its published contract
            pcm = (np.round(pcm.astype(np.int32) / q) * q).clip(-32768, 32767).astype(np.int16)
        x = pcm.astype(np.float64)
        zc = int(np.count_nonzero(np.signbit(x[1:]) != np.signbit(x[:-1])))
        spec = np.abs(np.fft.rfft(x))
        freqs = np.fft.rfftfreq(len(pcm), d=1.0 / sr)
        rows.append(
            {
                "audio_id": f"aud{i:08d}",
                "ok": True,
                "duration_ms": int(round(len(pcm) * 1000.0 / sr)),
                "rms_c": int(round(float(np.sqrt(np.mean(x * x))) * 100)),
                "zcr_bp": int(round(zc * 10_000.0 / max(1, len(pcm) - 1))),
                "peak_hz": int(round(freqs[int(np.argmax(spec))])),
                "centroid_hz": int(round(float((freqs * spec).sum() / spec.sum()))),
            }
        )
    t = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)
    pq.write_table(t, os.path.join(OUT, "audio_features_sf0.01.parquet"))
    print("audio_features_sf0.01.parquet:", t.num_rows, "rows")

    # ---- video (q38): n=100, seed=42, sample step 2
    rows = []
    for i in range(100):
        rng = np.random.default_rng(42 * 2_000_003 + i)
        w = h = 16
        nf = int(rng.integers(4, 13))
        _fps = int(rng.choice([10, 24]))
        base = rng.integers(0, 96, size=(h, w, 3), dtype=np.uint8)
        for f in range(0, nf, 2):
            frame = np.clip(np.roll(base, f, axis=1).astype(np.int32) + f * 9, 0, 255)
            rows.append(
                {
                    "video_id": f"vid{i:08d}",
                    "frame_idx": f,
                    "mean_lum_c": int(round(frame.astype(np.float64).mean() * 100)),
                    "is_key": f == 0,
                }
            )
    t = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)
    pq.write_table(t, os.path.join(OUT, "video_frames_sf0.01.parquet"))
    print("video_frames_sf0.01.parquet:", t.num_rows, "rows")


def gen_hll_values() -> None:
    """(event_type, n_hll) over sf0.01 events — the deterministic
    HyperLogLog estimate recomputed SEQUENTIALLY in pure-Python scalar
    arithmetic (no numpy, no Dataset machinery): same blake2b hash of
    ``repr(value)``, same register/rho extraction, same published
    Flajolet formulas as pipelines/queries.py::q48 — but register merge
    is a plain list loop, so the fixture is an independent
    implementation of the sketch."""
    import hashlib
    import math

    df = pq.read_table(f"{SF_DIR}/events.parquet", columns=["event_type", "value"]).to_pandas()
    p = 10
    m = 1 << p
    width = 64 - p
    salt = (0).to_bytes(8, "little")
    rows = []
    for etype in sorted(df["event_type"].unique()):
        vals = {repr(float(v)) for v in df.loc[df["event_type"] == etype, "value"]}
        regs = [0] * m
        for s in vals:
            h = int.from_bytes(
                hashlib.blake2b(s.encode("utf-8"), digest_size=8, salt=salt).digest(),
                "little",
            )
            idx = h >> width
            rem = h & ((1 << width) - 1)
            rho = width + 1 if rem == 0 else width - rem.bit_length() + 1
            regs[idx] = max(regs[idx], rho)
        alpha = 0.7213 / (1 + 1.079 / m)
        e = alpha * m * m / sum(2.0 ** (-r) for r in regs)
        zeros = regs.count(0)
        if e <= 2.5 * m and zeros:
            e = m * math.log(m / zeros)
        rows.append({"event_type": etype, "n_hll": int(round(e)), "n_true": len(vals)})
    import pandas as pd

    t = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)
    pq.write_table(t, os.path.join(OUT, "hll_values_sf0.01.parquet"))
    print("hll_values_sf0.01.parquet:", t.num_rows, "rows:",
          [(r["event_type"], r["n_hll"], r["n_true"]) for r in rows])

def gen_images_phash() -> None:
    """(image_id, phash) of the deterministic n=300/seed=42 images fixture
    — the q57 oracle self-joins this in SQL with bit_count(xor(...)) to
    brute-force the exact Hamming ball our block-LSH must reproduce."""
    from texrex_ray.pipelines.caption import fixture_path

    d = fixture_path(n=300, seed=42)
    t = pq.read_table(
        os.path.join(d, "images.parquet"),
        columns=["image_id", "phash", "w", "h", "fmt"],
    )
    pq.write_table(t, os.path.join(OUT, "images_phash_n300_s42.parquet"))



def gen_decontam() -> None:
    """Expected q59 output by a sequential pure-Python recompute: literal
    string 5-gram sets (no hashing, no Dataset machinery) — catches any
    hash-collision or tokenization drift in the distributed path."""
    import re

    tok = re.compile(r"[a-z]+")
    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"]).to_pandas()
    t = t.sort_values("doc_id").reset_index(drop=True)
    N = 5
    bench = set()
    for s in t["text"].head(10):
        toks = tok.findall((s or "").lower())
        for i in range(len(toks) - N + 1):
            bench.add(" ".join(toks[i:i + N]))
    ids, hits = [], []
    for doc_id, s in zip(t["doc_id"], t["text"]):
        toks = tok.findall((s or "").lower())
        n = sum(" ".join(toks[i:i + N]) in bench for i in range(len(toks) - N + 1))
        if n:
            ids.append(doc_id)
            hits.append(n)
    out = pa.table({"doc_id": pa.array(ids),
                    "n_hits": pa.array(hits, pa.int64())})
    pq.write_table(out, os.path.join(OUT, "decontam_sf0.01.parquet"))


def gen_rank_priority_crawl() -> None:
    """Expected q73 visit table: the priority crawl re-keyed by PageRank
    host scores from the graph's own link structure (regression pin, like
    q34; cross-partition determinism is asserted in tests)."""
    import ray

    from texrex_ray.crawl.priority import PriorityCrawlEngine
    from texrex_ray.functions.urlkit import host_of
    from texrex_ray.ops.graph import pagerank_int
    from texrex_ray.sources.webgraph import link_edges, make_webgraph

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
    g = make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)
    e = link_edges(g)
    import ray.data as rd

    edges = rd.from_arrow(
        pa.table({"src": pa.array([a for a, _ in e], pa.string()),
                  "dst": pa.array([b for _, b in e], pa.string())})
    )
    pr = pagerank_int(edges, iters=3)
    scores: dict = {}
    for page, r in zip(pr["page"], pr["rank"]):
        h = host_of(page)
        scores[h] = scores.get(h, 0) + int(r)
    scores = {h: v // 1000 for h, v in scores.items()}
    # budget BELOW the host count: the global top-B selection must actually
    # choose, so the rank bias shapes the schedule (at budget >= hosts the
    # politeness gate admits everyone and priority is moot)
    eng = PriorityCrawlEngine(
        g, n_partitions=4, budget_per_round=4, host_scores=scores
    )
    eng.run(max_fetches=120)
    rows = eng.visit_order()
    eng.shutdown()
    t = pa.table(
        {
            "round": pa.array([r[0] for r in rows], pa.int64()),
            "url": pa.array([r[1] for r in rows], pa.string()),
            "host": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "rank_priority_crawl_sf0.01.parquet"))
    print("rank_priority_crawl_sf0.01.parquet:", t.num_rows, "rows")


def gen_pagerank_edges() -> None:
    """q70's edge-list fixture: the deterministic webgraph's scoped link
    edges.  The SQL oracle runs the PageRank ITERATIONS itself from these
    edges — an independent implementation path (SQL joins vs broadcast
    dicts); only the graph topology is committed."""
    from texrex_ray.sources.webgraph import link_edges, make_webgraph

    g = make_webgraph(n_hosts=40, pages_per_host_base=12, n_seeds=8, seed=7)
    e = link_edges(g)
    t = pa.table(
        {
            "src": pa.array([a for a, _ in e], pa.string()),
            "dst": pa.array([b for _, b in e], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "pagerank_edges.parquet"))
    print("pagerank_edges.parquet:", t.num_rows, "edges")


def gen_incremental_neardup() -> None:
    """Expected q67 candidates via SEQUENTIAL band-tuple set membership —
    tuple equality, no band-hash encoding, no index, no Dataset machinery.
    The Rabin signatures themselves are pinned by tests/test_rabin.py."""
    import hashlib

    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE

    df = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    bk = [
        int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:], "little") % 100
        for i in df["doc_id"]
    ]
    toks = [LATIN_TOKEN_RE.findall(s.lower()) for s in df["text"]]
    k, bands = 32, 8
    r = k // bands
    sig, has_fp = rabin_minhash_signatures(toks, k=k, n=5)
    old_bands = set()
    for i, (b_, ok) in enumerate(zip(bk, has_fp)):
        if b_ < 80 and ok:
            for b in range(bands):
                old_bands.add((b, tuple(sig[i, b * r : (b + 1) * r])))
    ids, hits = [], []
    for i, (b_, ok) in enumerate(zip(bk, has_fp)):
        if b_ >= 80 and ok:
            n_hits = sum(
                (b, tuple(sig[i, b * r : (b + 1) * r])) in old_bands
                for b in range(bands)
            )
            if n_hits:
                ids.append(int(df["doc_id"].iloc[i]))
                hits.append(n_hits)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "n_hits": pa.array(hits, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "incremental_neardup_sf0.01.parquet"))
    print("incremental_neardup_sf0.01.parquet:", t.num_rows, "rows")


def gen_boiler_scores() -> None:
    """q97: FANN-forward boilerplate scores over deterministic divs.

    Writes (a) a committed deterministic 37-18-1 FANN_FLO_2.1 net
    (tests/fixtures/boilerplate_37_18_1.net — the shape the reference's
    SetFannFile loads, trdeboilerplater.pas:697-699) and (b) the expected
    per-div scores by SCALAR per-doc recomputation: decode → strip →
    cleanse per div → div_features → parse_fann(...).run (the raw FANN
    forward, NOT the Deboilerplater/MLP path the query uses) → doc-kill
    thresholds (trdeboilerplater.pas:290-335)."""
    from texrex_ray.crawl.fetcher import decode_content
    from texrex_ray.functions.cleanse import cleanse_full
    from texrex_ray.functions.striphtml import DivInfo, strip_html
    from texrex_ray.sources.webgraph import make_webgraph
    from texrex_ray.stages.boilerplate import div_features
    from texrex_ray.stages.fann import parse_fann

    rng = np.random.default_rng(97)
    n_in, n_hid = 37, 18
    neurons = (
        " ".join(["(0, 0, 0.0)"] * (n_in + 1))
        + " "
        + " ".join([f"({n_in + 1}, 5, 5.00000000000000000000e-01)"] * n_hid)
        + " (0, 5, 0.0) "
        + f"({n_hid + 1}, 3, 5.00000000000000000000e-01) (0, 3, 0.0)"
    )
    conns = []
    for _ in range(n_hid):
        conns += [f"({k}, {rng.normal() * 0.6:.20e})" for k in range(n_in + 1)]
    conns += [
        f"({n_in + 1 + k}, {rng.normal() * 0.8:.20e})" for k in range(n_hid + 1)
    ]
    text = (
        "FANN_FLO_2.1\nnum_layers=3\nlearning_rate=0.700000\n"
        "connection_rate=1.000000\nnetwork_type=0\n"
        f"layer_sizes={n_in + 1} {n_hid + 1} 2\nscale_included=0\n"
        f"neurons (num_inputs, activation_function, activation_steepness)={neurons}\n"
        f"connections (connected_to_neuron, weight)={' '.join(conns)}\n"
    )
    net_path = os.path.join(os.path.dirname(OUT), "boilerplate_37_18_1.net")
    with open(net_path, "w") as f:
        f.write(text)
    net = parse_fann(text)

    g = make_webgraph(n_hosts=10, pages_per_host_base=10, seed=42)
    urls, idxs, scores_c, flags, valids = [], [], [], [], []
    for url in sorted(u for u, p in g.pages.items() if p.status == 200):
        p = g.pages[url]
        txt, cs = decode_content(p.content, p.charset or "")
        sr = strip_html(txt)
        if sr.meta_charset and sr.meta_charset not in (cs, ""):
            txt, cs = decode_content(p.content, sr.meta_charset)
            sr = strip_html(txt)
        infos = [
            DivInfo(
                text=cleanse_full(d.text)[0], open_tags=d.open_tags,
                close_tags=d.close_tags, anchors=d.anchors,
                container=d.container, skipped=d.skipped,
            )
            for d in sr.div_infos
        ]
        feats = div_features(infos, sr.doctype)
        sc = net.run(feats)[:, 0] if len(infos) else np.zeros(0)
        good = sc <= 0.55
        good_chars = sum(len(d.text) for d, gd in zip(infos, good) if gd)
        total_chars = max(1, sum(len(d.text) for d in infos))
        doc_valid = bool(
            len(infos)
            and good.sum() >= 1
            and good_chars >= 100
            and good_chars / total_chars >= 0.25
            and good.sum() / len(infos) >= 0.1
        )
        for i, s in enumerate(sc):
            urls.append(url)
            idxs.append(i)
            scores_c.append(int(np.round(s * 1_000_000)))
            flags.append(bool(s > 0.55))
            valids.append(doc_valid)
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "div_idx": pa.array(idxs, pa.int64()),
            "boiler_score_c": pa.array(scores_c, pa.int64()),
            "boilerplate": pa.array(flags, pa.bool_()),
            "doc_valid": pa.array(valids, pa.bool_()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "boiler_scores_sf0.01.parquet"))
    print("boiler_scores_sf0.01.parquet:", t.num_rows, "rows")


def gen_cdc_stats() -> None:
    """Expected q117 per-source CDC dedup stats from the INDEPENDENT
    sequential chunker (dedup/cdc.py::chunk_doc_sequential — per-byte
    Python loop, no numpy window trick) + a dict-based first-owner scan
    in (doc_id, chunk_idx) order."""
    import hashlib

    import pandas as pd

    from texrex_ray.dedup.cdc import boundary_mask, chunk_doc_sequential

    df = (
        pq.read_table(
            f"{SF_DIR}/documents.parquet", columns=["doc_id", "text", "source"]
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    mask = boundary_mask(6)
    rows = []  # (doc_id, idx, hash, len, source)
    for _, r in df.iterrows():
        b = str(r["text"]).encode("utf-8")
        for ci, (off, ln) in enumerate(chunk_doc_sequential(b, mask)):
            rows.append(
                (
                    int(r["doc_id"]),
                    ci,
                    hashlib.md5(b[off : off + ln]).hexdigest(),
                    ln,
                    r["source"],
                )
            )
    owner: dict[str, tuple[int, int]] = {}
    for did, ci, hh, ln, _src in rows:
        if hh not in owner or (did, ci) < owner[hh]:
            owner[hh] = (did, ci)
    stats: dict[str, list[int]] = {}
    for did, ci, hh, ln, src in rows:
        st = stats.setdefault(src, [0, 0, 0, 0])
        st[0] += 1
        st[1] += ln
        if owner[hh] != (did, ci):
            st[2] += 1
            st[3] += ln
    t = pa.table(
        {
            "source": pa.array(sorted(stats), pa.string()),
            "n_chunks": pa.array([stats[s][0] for s in sorted(stats)], pa.int64()),
            "n_bytes": pa.array([stats[s][1] for s in sorted(stats)], pa.int64()),
            "n_dup_chunks": pa.array([stats[s][2] for s in sorted(stats)], pa.int64()),
            "dup_bytes": pa.array([stats[s][3] for s in sorted(stats)], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "cdc_stats_sf0.01.parquet"))
    print("cdc_stats_sf0.01.parquet:", t.num_rows, "rows,",
          int(t["n_dup_chunks"].to_pandas().sum()), "dup chunks")


def gen_core_numbers() -> None:
    """Expected q119 k-core numbers from the INDEPENDENT sequential
    Matula-Beck bucket peeling (ops/graph.py::core_numbers_sequential
    — per-edge Python, no Dataset machinery)."""
    from texrex_ray.ops.graph import core_numbers_sequential

    df = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")).to_pandas()
    core = core_numbers_sequential(list(zip(df["src"], df["dst"])))
    nodes = sorted(core)
    t = pa.table(
        {
            "node": pa.array(nodes, pa.string()),
            "core": pa.array([core[v] for v in nodes], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "core_numbers_sf0.01.parquet"))
    print("core_numbers_sf0.01.parquet:", t.num_rows, "rows, max core",
          int(t["core"].to_pandas().max()))


def gen_bpe_merges() -> None:
    """Expected q120 BPE merge table from the INDEPENDENT dict-based
    sequential trainer (functions/bpe.py::bpe_train_sequential) over
    pure-python word counts."""
    import re
    from collections import Counter

    from texrex_ray.functions.bpe import bpe_train_sequential

    df = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"]).to_pandas()
    wc: Counter[str] = Counter()
    tok = re.compile(r"[a-z]+")
    for s_ in df["text"]:
        wc.update(tok.findall(str(s_).lower()))
    merges = bpe_train_sequential(dict(wc), 12)
    t = pa.table(
        {
            "rank": pa.array(list(range(len(merges))), pa.int64()),
            "left": pa.array([m[0] for m in merges], pa.string()),
            "right": pa.array([m[1] for m in merges], pa.string()),
            "pair_count": pa.array([m[2] for m in merges], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "bpe_merges_sf0.01.parquet"))
    print("bpe_merges_sf0.01.parquet:", t.num_rows, "merges; first",
          merges[0] if merges else None)


def gen_bpe_encode() -> None:
    """Expected q131 per-doc subword accounting from the INDEPENDENT
    per-word sequential encoder (functions/bpe.py::bpe_encode_sequential)
    driven by the SAME sequential trainer's merges — no Dataset machinery
    anywhere on the oracle path."""
    import re
    from collections import Counter

    from texrex_ray.functions.bpe import bpe_encode_sequential, bpe_train_sequential

    df = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    wc: Counter[str] = Counter()
    tok = re.compile(r"[a-z]+")
    for s_ in df["text"]:
        wc.update(tok.findall(str(s_).lower()))
    merges = [(l, r) for l, r, _ in bpe_train_sequential(dict(wc), 12)]
    enc = bpe_encode_sequential(
        dict(zip(df["doc_id"], df["text"])), merges
    )
    ids = sorted(enc)
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array([enc[i][0] for i in ids], pa.int64()),
            "n_subwords": pa.array([enc[i][1] for i in ids], pa.int64()),
            "n_distinct_subwords": pa.array([enc[i][2] for i in ids], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "bpe_encode_sf0.01.parquet"))
    print("bpe_encode_sf0.01.parquet:", t.num_rows, "rows")


def gen_crossmodal() -> None:
    """Deterministic image+caption table with PLANTED cross-modal
    duplicates for q132: base rows get (a) pixel near-copies (phash a
    few bit-flips away, caption rewritten), (b) caption near-copies
    (one word swapped, phash unrelated), and (c) combined drifters.
    The q132 oracle brute-forces pairs + closure over this table in
    SQL, so the fixture only needs to be deterministic — all values
    derive from md5(tag) bits, no RNG state."""
    import hashlib

    words = [
        "river", "bridge", "forest", "sunset", "mountain", "city",
        "aerial", "vintage", "texture", "pattern", "macro", "light",
        "modern", "abstract", "monochrome", "portrait", "colorful",
    ]

    def h64(tag: str) -> int:
        return int.from_bytes(hashlib.md5(tag.encode()).digest()[:8], "little")

    def caption_of(tag: str, n: int = 10) -> str:
        return " ".join(
            words[h64(f"{tag}|w{k}") % len(words)] for k in range(n)
        )

    rows = []

    def add(img_id: str, phash: int, cap: str, tag: str) -> None:
        rows.append(
            {
                "image_id": img_id,
                "phash": np.int64(np.uint64(phash & ((1 << 64) - 1)).astype(np.int64)),
                "caption": cap,
                "w": 16 * (1 + h64(f"{tag}|w") % 4),
                "h": 16 * (1 + h64(f"{tag}|h") % 4),
            }
        )

    for i in range(60):
        tag = f"base{i}"
        base_ph = h64(f"{tag}|ph")
        base_cap = caption_of(tag)
        add(f"img{i:03d}", base_ph, base_cap, tag)
        if i % 5 == 0:
            # pixel near-copy: flip 3 phash bits, unrelated caption
            ph = base_ph ^ (1 << (i % 64)) ^ (1 << ((i + 17) % 64)) ^ (1 << ((i + 41) % 64))
            add(f"img{i:03d}p", ph, caption_of(f"{tag}|other"), f"{tag}|p")
        if i % 7 == 0:
            # caption near-copy: swap ONE word, unrelated phash
            toks = base_cap.split()
            toks[3] = words[(h64(f"{tag}|swap")) % len(words)]
            add(f"img{i:03d}c", h64(f"{tag}|ph2"), " ".join(toks), f"{tag}|c")
        if i % 11 == 0:
            # both drift a little: 5 phash bits + one word
            ph = base_ph ^ sum(1 << ((i + 3 * k) % 64) for k in range(5))
            toks = base_cap.split()
            toks[7] = words[(h64(f"{tag}|swap2")) % len(words)]
            add(f"img{i:03d}b", ph, " ".join(toks), f"{tag}|b")

    t = pa.table(
        {
            "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
            "phash": pa.array([int(r["phash"]) for r in rows], pa.int64()),
            "caption": pa.array([r["caption"] for r in rows], pa.string()),
            "w": pa.array([r["w"] for r in rows], pa.int32()),
            "h": pa.array([r["h"] for r in rows], pa.int32()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "crossmodal_images.parquet"))
    print("crossmodal_images.parquet:", t.num_rows, "rows")


def gen_ppr_push() -> None:
    """Expected q140 local-PPR push scores from the INDEPENDENT per-edge
    sequential twin (ops/graph.py::ppr_push_sequential) over the
    committed pagerank edge fixture, seeded at the page q129/q70 rank
    highest (a hub — its neighborhood is non-trivial)."""
    from texrex_ray.ops.graph import ppr_push_sequential

    df = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")).to_pandas()
    res = ppr_push_sequential(
        list(zip(df["src"], df["dst"])), "http://host1.tld1/p165", max_rounds=30
    )
    pages = sorted(res, key=lambda v: (-res[v][0], v))
    t = pa.table(
        {
            "page": pa.array(pages, pa.string()),
            "p": pa.array([res[v][0] for v in pages], pa.int64()),
            "r": pa.array([res[v][1] for v in pages], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "ppr_push_sf0.01.parquet"))
    print("ppr_push_sf0.01.parquet:", t.num_rows, "rows")


def gen_seed_cover() -> None:
    """Expected q142 greedy max-cover seed picks from the INDEPENDENT
    dict-based sequential twin over the committed edge fixture."""
    from texrex_ray.ops.graph import greedy_seed_cover_sequential

    df = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")).to_pandas()
    rows = greedy_seed_cover_sequential(list(zip(df["src"], df["dst"])), 5)
    t = pa.table(
        {
            "rank": pa.array([r[0] for r in rows], pa.int64()),
            "seed": pa.array([r[1] for r in rows], pa.string()),
            "n_new": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "seed_cover_sf0.01.parquet"))
    print("seed_cover_sf0.01.parquet:", t.num_rows, "rows")


def gen_neighborhood_function() -> None:
    """Expected q128 HyperBall neighborhood function from the INDEPENDENT
    sequential per-edge register-merge twin."""
    from texrex_ray.ops.graph import neighborhood_function_sequential

    df = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")).to_pandas()
    rows = neighborhood_function_sequential(list(zip(df["src"], df["dst"])), 8)
    t = pa.table(
        {
            "t": pa.array([r[0] for r in rows], pa.int64()),
            "nf_c": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "neighborhood_fn_sf0.01.parquet"))
    print("neighborhood_fn_sf0.01.parquet:", t.num_rows, "rows")


def gen_audio_fingerprint() -> None:
    """Expected q149 near-dup pairs, recomputed from REGENERATED PCM with
    the published energy-delta fingerprint formula and a brute-force
    O(n^2) Hamming scan — independent of the container codec, the
    AudioFingerprint stage, and the hamming_pairs block-LSH."""
    import pandas as pd

    from texrex_ray.sources.av import AUDIO_QUANT, _synth_pcm

    def sig_of(pcm: np.ndarray) -> int:
        n, F = len(pcm), 65
        x = pcm.astype(np.float64)
        bounds = [j * n // F for j in range(F + 1)]
        e = [float((x[bounds[j]: bounds[j + 1]] ** 2).sum()) for j in range(F)]
        s = 0
        for j in range(64):
            if e[j + 1] > e[j]:
                s |= 1 << j
        return s

    sigs = {}
    for i in range(150):  # mirrors queries._av_n(sf0.01)
        rng = np.random.default_rng(42 * 1_000_003 + i)
        sr = int(rng.choice([8000, 16000]))
        dur = float(rng.uniform(0.2, 1.0))
        pcm = _synth_pcm(rng, int(sr * dur), sr)
        q = AUDIO_QUANT["ogg" if i % 3 == 0 else "wav"]
        stored = pcm if q == 1 else (
            np.round(pcm.astype(np.int32) / q) * q
        ).clip(-32768, 32767).astype(np.int16)
        twin = (np.round(stored.astype(np.int32) / 16) * 16).clip(
            -32768, 32767
        ).astype(np.int16)
        sigs[i] = sig_of(stored)
        sigs[i + 10_000] = sig_of(twin)

    rows = []
    ks = sorted(sigs)
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            d = bin(sigs[ks[a]] ^ sigs[ks[b]]).count("1")
            if d <= 2:
                rows.append({"id_a": ks[a], "id_b": ks[b], "hamming": d})
    t = pa.Table.from_pandas(
        pd.DataFrame(rows).sort_values(["id_a", "id_b"]).reset_index(drop=True),
        preserve_index=False,
    )
    pq.write_table(t, os.path.join(OUT, "audio_fp_pairs_sf0.01.parquet"))
    print("audio_fp_pairs_sf0.01.parquet:", t.num_rows, "rows")


def gen_pq_topk() -> None:
    """Expected q154 PQ/ADC top-k from the INDEPENDENT pure-Python twin
    (dedup/pq.py::pq_sequential — dict/loop arithmetic, no numpy, no
    Ray) over the sf0.01 embeddings; queries are vec_id < 8 like q15."""
    from texrex_ray.dedup.pq import pq_sequential

    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    vecs = {
        int(i): list(v)
        for i, v in zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist())
    }
    rows = pq_sequential(vecs, list(range(8)), m=8, ks=16, iters=5, k=10)
    out = pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "neighbor_id": pa.array([r[1] for r in rows], pa.int64()),
            "adc_dist": pa.array([r[2] for r in rows], pa.int64()),
            "rank": pa.array([r[3] for r in rows], pa.int64()),
        }
    )
    pq.write_table(out, os.path.join(OUT, "pq_adc_sf0.01.parquet"))
    print("pq_adc_sf0.01.parquet:", out.num_rows, "rows")


def gen_minhash_sigs() -> None:
    """q163's signature fixture: Rabin64 minhash signatures (k=100,
    reference scheme — values pinned against the literal transcription
    of trshingler.pas in tests/test_rabin.py) for the documents that
    appear in q14's sf0.01 Jaccard pairs.  The PAIR list and the exact
    Jaccard side are recomputed live by the SQL oracle; only the hash
    values (not SQL-expressible) ride the fixture — q13's precedent."""
    import duckdb

    from texrex_ray.functions.rabin import rabin_minhash_signatures
    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE
    from texrex_ray.pipelines.queries import ORACLE

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF_DIR}/documents.parquet')"
    )
    pairs = con.execute(ORACLE["q14_ngram_jaccard"]).fetchdf()
    ids = sorted(set(pairs["id_a"]) | set(pairs["id_b"]))
    docs = con.execute(
        "SELECT doc_id, text FROM documents WHERE doc_id IN "
        f"({','.join(map(str, ids))}) ORDER BY doc_id"
    ).fetchdf()
    toks = [LATIN_TOKEN_RE.findall((s or "").lower()) for s in docs["text"]]
    sig, has_fp = rabin_minhash_signatures(toks, k=100, n=5)
    assert has_fp.all(), "q14 pair doc without a fingerprint"
    n, k = sig.shape
    t = pa.table(
        {
            "doc_id": pa.array(np.repeat(docs["doc_id"].to_numpy(), k), pa.int64()),
            "h_idx": pa.array(np.tile(np.arange(k), n), pa.int64()),
            "sig": pa.array(sig.reshape(-1), pa.uint64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "minhash_sigs_sf0.01.parquet"))
    print("minhash_sigs_sf0.01.parquet:", t.num_rows, "rows")


def gen_stress_centrality() -> None:
    """Stress centrality of the crawl link graph by the PAIR identity
    sigma_st(v) = sigma_sv * sigma_vt on the all-pairs BFS matrices —
    an independent formulation from the distributed Brandes-style
    accumulation in ops/centrality.py::stress_centrality."""
    import pandas as pd
    from texrex_ray.ops.centrality import stress_matrix_twin

    edges = pd.read_parquet(os.path.join(OUT, "pagerank_edges.parquet"))
    out = stress_matrix_twin(edges)
    t = pa.table({
        "node": pa.array(out["node"].tolist(), pa.string()),
        "stress": pa.array(out["stress"].to_numpy(), pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "stress_centrality_sf0.01.parquet"))
    print("stress_centrality_sf0.01.parquet:", t.num_rows, "rows, max",
          int(out["stress"].max()))


def gen_harmonic_closeness() -> None:
    """Harmonic closeness via plain deque BFS (ops/centrality.py::
    harmonic_sequential_twin) — no numpy in the walk, independent of
    the vectorized level-synchronous BFS the distributed path uses."""
    import pandas as pd
    from texrex_ray.ops.centrality import harmonic_sequential_twin

    edges = pd.read_parquet(os.path.join(OUT, "pagerank_edges.parquet"))
    out = harmonic_sequential_twin(edges)
    t = pa.table({
        "node": pa.array(out["node"].tolist(), pa.string()),
        "harmonic_ppm": pa.array(out["harmonic_ppm"].to_numpy(), pa.int64()),
        "n_reached": pa.array(out["n_reached"].to_numpy(), pa.int64()),
        "sum_dist": pa.array(out["sum_dist"].to_numpy(), pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "harmonic_closeness_sf0.01.parquet"))
    print("harmonic_closeness_sf0.01.parquet:", t.num_rows, "rows")



def gen_image_patches() -> None:
    """Per-tile channel sums of the n300/s42 images fixture via plain
    Python-int accumulation over .tolist() rows — an independent
    summation path from the distributed ImagePatcher's numpy axis
    sums."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["image_id", "bytes"])
    G = 4
    rows = []
    for iid, raw in zip(imgs["image_id"].to_pylist(),
                        imgs["bytes"].to_pylist()):
        px = decode_image(raw)
        h, w, _ = px.shape
        rb = [h * i // G for i in range(G + 1)]
        cb = [w * i // G for i in range(G + 1)]
        lst = px.tolist()  # python ints from here on
        for r in range(G):
            for c in range(G):
                sr = sg = sb = n = 0
                for y in range(rb[r], rb[r + 1]):
                    rowpx = lst[y]
                    for x in range(cb[c], cb[c + 1]):
                        pr, pg, pb = rowpx[x]
                        sr += pr; sg += pg; sb += pb; n += 1
                rows.append((iid, r, c, rb[r + 1] - rb[r],
                             cb[c + 1] - cb[c], sr, sg, sb, n))
    cols = ["image_id", "tile_row", "tile_col", "tile_h", "tile_w",
            "sum_r", "sum_g", "sum_b", "n_px"]
    df = pd.DataFrame(rows, columns=cols)
    t = pa.Table.from_pandas(df, preserve_index=False)
    for c in cols[1:]:
        t = t.set_column(t.schema.get_field_index(c), c,
                         t[c].cast(pa.int64()))
    pq.write_table(t, os.path.join(OUT, "image_patches_n300_s42.parquet"))
    print("image_patches_n300_s42.parquet:", t.num_rows, "rows")



def gen_eccentricity() -> None:
    """Out-eccentricity of the crawl link graph via the deque-BFS twin
    (ops/centrality.py::eccentricity_sequential_twin)."""
    import pandas as pd
    from texrex_ray.ops.centrality import eccentricity_sequential_twin

    edges = pd.read_parquet(os.path.join(OUT, "pagerank_edges.parquet"))
    out = eccentricity_sequential_twin(edges)
    t = pa.table({
        "node": pa.array(out["node"].tolist(), pa.string()),
        "ecc": pa.array(out["ecc"].to_numpy(), pa.int64()),
        "n_reached": pa.array(out["n_reached"].to_numpy(), pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "eccentricity_sf0.01.parquet"))
    print("eccentricity_sf0.01.parquet:", t.num_rows, "rows, diameter",
          int(out["ecc"].max()))



def gen_exposure_audit() -> None:
    """Per-image luma quantiles + clip counts via a pure-Python counting
    loop — independent of the distributed ExposureAudit's bincount."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["image_id", "bytes"])
    rows = []
    for iid, raw in zip(imgs["image_id"].to_pylist(),
                        imgs["bytes"].to_pylist()):
        px = decode_image(raw)
        counts = [0] * 256
        n = 0
        for row in px.tolist():
            for r, g, b in row:
                counts[(299 * r + 587 * g + 114 * b) // 1000] += 1
                n += 1

        def quant(q):
            idx = int(q * (n - 1))
            c = 0
            for v in range(256):
                c += counts[v]
                if c > idx:
                    return v
            return 255

        rows.append((iid, quant(0.05), quant(0.50), quant(0.95),
                     sum(counts[:3]), sum(counts[253:])))
    df = pd.DataFrame(rows, columns=["image_id", "p05", "p50", "p95",
                                     "n_dark", "n_bright"])
    t = pa.Table.from_pandas(df, preserve_index=False)
    for c in df.columns[1:]:
        t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.int64()))
    pq.write_table(t, os.path.join(OUT, "exposure_audit_n300_s42.parquet"))
    print("exposure_audit_n300_s42.parquet:", t.num_rows, "rows")



def gen_edge_stress() -> None:
    """Edge stress of the crawl link graph via predecessor-list Brandes
    (ops/centrality.py::edge_stress_sequential_twin)."""
    import pandas as pd
    from texrex_ray.ops.centrality import edge_stress_sequential_twin

    edges = pd.read_parquet(os.path.join(OUT, "pagerank_edges.parquet"))
    out = edge_stress_sequential_twin(edges)
    t = pa.table({
        "src": pa.array(out["src"].tolist(), pa.string()),
        "dst": pa.array(out["dst"].tolist(), pa.string()),
        "stress": pa.array(out["stress"].to_numpy(), pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "edge_stress_sf0.01.parquet"))
    print("edge_stress_sf0.01.parquet:", t.num_rows, "rows, max",
          int(out["stress"].max()))



def gen_label_prop() -> None:
    """Expected q239 synchronous-LPA labels from the INDEPENDENT
    dict/Counter twin (ops/graph.py::label_propagation_sequential)."""
    from texrex_ray.ops.graph import label_propagation_sequential

    df = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")).to_pandas()
    lab = label_propagation_sequential(list(zip(df["src"], df["dst"])), iters=4)
    pages = sorted(lab)
    t = pa.table(
        {
            "page": pa.array(pages, pa.string()),
            "label": pa.array([lab[v] for v in pages], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "label_prop_sf0.01.parquet"))
    print("label_prop_sf0.01.parquet:", t.num_rows, "rows,",
          t["label"].to_pandas().nunique(), "communities")


def gen_html_pages() -> None:
    """Synthetic page HTML for q247's nesting-depth oracle: the SAME
    deterministic webgraph pages the Ray side regenerates in-process
    (seed-pinned), stored latin-1-decoded so bytes round-trip."""
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(
        n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42,
        with_images=True,
    )
    urls = sorted(g.pages)
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array([g.pages[u].host for u in urls], pa.string()),
            "html": pa.array(
                [g.pages[u].content.decode("latin-1") for u in urls],
                pa.string(),
            ),
        }
    )
    pq.write_table(t, os.path.join(OUT, "html_pages_sf0.01.parquet"))
    print("html_pages_sf0.01.parquet:", t.num_rows, "pages")


def gen_channel_stats() -> None:
    """Expected q251 per-image channel sums from an INDEPENDENT serial
    decode loop (no Dataset machinery, numpy-free accumulation)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet")).to_pandas()
    rows = []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"]))
        h, w, _ = px.shape
        sums = [0, 0, 0]
        sqs = [0, 0, 0]
        for y in range(h):          # deliberately scalar: independent path
            for x in range(w):
                for c in range(3):
                    v = int(px[y, x, c])
                    sums[c] += v
                    sqs[c] += v * v
        rows.append((r["image_id"], r["fmt"], *sums, *sqs, h * w))
    t = pa.table(
        {
            "image_id": pa.array([r[0] for r in rows], pa.string()),
            "fmt": pa.array([r[1] for r in rows], pa.string()),
            "sum_r": pa.array([r[2] for r in rows], pa.int64()),
            "sum_g": pa.array([r[3] for r in rows], pa.int64()),
            "sum_b": pa.array([r[4] for r in rows], pa.int64()),
            "sq_r": pa.array([r[5] for r in rows], pa.int64()),
            "sq_g": pa.array([r[6] for r in rows], pa.int64()),
            "sq_b": pa.array([r[7] for r in rows], pa.int64()),
            "n_px": pa.array([r[8] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "channel_stats_n300_s42.parquet"))
    print("channel_stats_n300_s42.parquet:", t.num_rows, "rows")


def gen_graph42_edges() -> None:
    """Edges + seeds of the 10-host seed=42 webgraph (the graph behind
    the q21 crawl-visits fixture) for q255's recursive-CTE oracle."""
    from texrex_ray.sources.webgraph import link_edges, make_webgraph

    g = make_webgraph(n_hosts=10, pages_per_host_base=10, n_seeds=8, seed=42)
    e = link_edges(g)
    t = pa.table(
        {
            "src": pa.array([a for a, _ in e], pa.string()),
            "dst": pa.array([b for _, b in e], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(OUT, "graph42_edges.parquet"))
    ts = pa.table({"url": pa.array(list(g.seeds), pa.string())})
    pq.write_table(ts, os.path.join(OUT, "graph42_seeds.parquet"))
    print("graph42_edges.parquet:", t.num_rows, "edges,",
          ts.num_rows, "seeds")



def gen_sharpness() -> None:
    """Expected q265 per-image Laplacian variance from an INDEPENDENT
    serial per-pixel loop (scalar accumulation, no numpy vector ops on
    the Laplacian path)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet")).to_pandas()
    ids, fmts, vs = [], [], []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"]))
        h, w, _ = px.shape
        lum = [[int(px[y, x, 0]) + int(px[y, x, 1]) + int(px[y, x, 2])
                for x in range(w)] for y in range(h)]
        if h < 3 or w < 3:
            v = -1
        else:
            s1 = s2 = 0
            n = (h - 2) * (w - 2)
            for y in range(1, h - 1):        # deliberately scalar
                for x in range(1, w - 1):
                    l = (4 * lum[y][x] - lum[y - 1][x] - lum[y + 1][x]
                         - lum[y][x - 1] - lum[y][x + 1])
                    s1 += l
                    s2 += l * l
            v = (n * s2 - s1 * s1) * 1000 // (n * n)
        ids.append(r["image_id"]); fmts.append(r["fmt"]); vs.append(v)
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "var_milli": pa.array(vs, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "sharpness_fixture.parquet"))
    print("sharpness_fixture.parquet:", t.num_rows, "rows")


def gen_ktruss() -> None:
    """Expected q266 k-truss ladder from the INDEPENDENT stack-driven
    incremental peeling (ops/graph.py::ktruss_sequential — dict-of-sets
    per-edge Python, no Dataset machinery)."""
    from texrex_ray.ops.graph import ktruss_sequential

    df = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")).to_pandas()
    sizes = ktruss_sequential(list(zip(df["src"], df["dst"])))
    ks = sorted(sizes)
    t = pa.table({"k": pa.array(ks, pa.int64()),
                  "n_edges": pa.array([sizes[k] for k in ks], pa.int64())})
    pq.write_table(t, os.path.join(OUT, "ktruss_sf0.01.parquet"))
    print("ktruss_sf0.01.parquet:", t.num_rows, "rows", dict(sizes))


def gen_kmeans() -> None:
    """Expected q267 Lloyd k-means summary from an INDEPENDENT serial
    trainer: plain per-row python loops over the fixed-point int64
    vectors — same spec (init = K lowest vec_ids, argmin ties to the
    lowest cluster, update = elementwise floor-div, empty cluster keeps
    its centroid), different implementation path."""
    import pandas as pd

    K, ITERS, Q = 8, 5, 1000
    df = (pq.read_table(f"{SF_DIR}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
          .to_pandas().sort_values("vec_id").reset_index(drop=True))
    vecs = [[int(np.floor(float(x) * Q + 0.5)) for x in v]
            for v in df["embedding"]]
    d = len(vecs[0])
    cents = [list(vecs[i]) for i in range(K)]
    for _ in range(ITERS):
        sums = [[0] * d for _ in range(K)]
        cnts = [0] * K
        for v in vecs:
            best, bd = 0, None
            for j in range(K):
                dist = sum((a - b) * (a - b) for a, b in zip(v, cents[j]))
                if bd is None or dist < bd:
                    best, bd = j, dist
            cnts[best] += 1
            for t_ in range(d):
                sums[best][t_] += v[t_]
        for j in range(K):
            if cnts[j]:
                cents[j] = [sums[j][t_] // cnts[j] for t_ in range(d)]
    n_mem = [0] * K
    inert = [0] * K
    for v in vecs:
        best, bd = 0, None
        for j in range(K):
            dist = sum((a - b) * (a - b) for a, b in zip(v, cents[j]))
            if bd is None or dist < bd:
                best, bd = j, dist
        n_mem[best] += 1
        inert[best] += bd
    t = pa.table({"cluster": pa.array(range(K), pa.int64()),
                  "n_members": pa.array(n_mem, pa.int64()),
                  "inertia": pa.array(inert, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "kmeans_sf0.01.parquet"))
    print("kmeans_sf0.01.parquet:", t.num_rows, "rows", n_mem)



def gen_blob_counts() -> None:
    """Expected q269 per-image blob counts from an INDEPENDENT scalar
    BFS flood fill (deque over pixels — no numpy relaxation)."""
    from collections import deque

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet")).to_pandas()
    ids, fmts, ns = [], [], []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"]))
        h, w, _ = px.shape
        fg = [[(int(px[y, x, 0]) + int(px[y, x, 1]) + int(px[y, x, 2])) > 383
               for x in range(w)] for y in range(h)]
        seen = [[False] * w for _ in range(h)]
        n = 0
        for y0 in range(h):
            for x0 in range(w):
                if not fg[y0][x0] or seen[y0][x0]:
                    continue
                n += 1
                dq = deque([(y0, x0)])
                seen[y0][x0] = True
                while dq:
                    y, x = dq.popleft()
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        yy, xx = y + dy, x + dx
                        if (0 <= yy < h and 0 <= xx < w and fg[yy][xx]
                                and not seen[yy][xx]):
                            seen[yy][xx] = True
                            dq.append((yy, xx))
        ids.append(r["image_id"]); fmts.append(r["fmt"]); ns.append(n)
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "n_blobs": pa.array(ns, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "blob_counts_fixture.parquet"))
    print("blob_counts_fixture.parquet:", t.num_rows, "rows")


def gen_isotonic() -> None:
    """Expected q270 isotonic fit from the INDEPENDENT minimax formula
    (fit[k] = max over i<=k of min over j>=k of mean(y[i..j]), exact
    Fractions) — a different characterization of the same regression
    than PAVA pooling."""
    from fractions import Fraction

    import pandas as pd

    li = pq.read_table(
        f"{SF_DIR}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    ).to_pandas()
    li["qty"] = [int(round(q)) for q in li["l_quantity"]]
    li["cents"] = [int(round(x * 100)) for x in li["l_extendedprice"]]
    rows = []
    for flag, sub in li.groupby("l_returnflag"):
        g = sub.groupby("qty").agg(s=("cents", "sum"), n=("cents", "size"))
        g = g.sort_index()
        qs = list(g.index)
        S = [0]
        N = [0]
        for q in qs:
            S.append(S[-1] + int(g.loc[q, "s"]))
            N.append(N[-1] + int(g.loc[q, "n"]))
        m = len(qs)

        def mean(i, j):  # inclusive block i..j (0-based)
            return Fraction(S[j + 1] - S[i], N[j + 1] - N[i])

        for k in range(m):
            fit = max(min(mean(i, j) for j in range(k, m)) for i in range(k + 1))
            mc = (fit.numerator * 1000) // fit.denominator
            rows.append((flag, qs[k], int(g.loc[qs[k], "n"]), mc))
    t = pa.table({
        "l_returnflag": pa.array([r[0] for r in rows], pa.string()),
        "qty": pa.array([r[1] for r in rows], pa.int64()),
        "n_items": pa.array([r[2] for r in rows], pa.int64()),
        "fitted_mc": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "isotonic_sf0.01.parquet"))
    print("isotonic_sf0.01.parquet:", t.num_rows, "rows")


def gen_palette() -> None:
    """Expected q272 per-image palette stats from an INDEPENDENT
    organization of the midpoint box-split spec: boxes as explicit
    index-array objects with stats recomputed from scratch each round
    via np.ptp and a key-tuple max (the stage keeps one flat label
    array and argmax scans)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    K = 8
    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet")).to_pandas()
    ids, fmts, nbs, errs = [], [], [], []
    for _, r in df.iterrows():
        pts = decode_image(bytes(r["bytes"])).reshape(-1, 3).astype(np.int64)
        boxes = [np.arange(len(pts))]
        while len(boxes) < K:
            cand = []
            for bid, idx in enumerate(boxes):
                rng = np.ptp(pts[idx], axis=0)
                ch = int(np.argmax(rng))
                cand.append((int(rng[ch]), -bid, ch, bid))
            rng_v, _, ch, bid = max(cand)
            if rng_v == 0:
                break
            idx = boxes[bid]
            v = pts[idx, ch]
            mid = (int(v.min()) + int(v.max())) // 2
            boxes[bid] = idx[v <= mid]
            boxes.append(idx[v > mid])
        err = 0
        for idx in boxes:
            c = pts[idx].sum(axis=0) // len(idx)
            err += int(((pts[idx] - c) ** 2).sum())
        ids.append(r["image_id"]); fmts.append(r["fmt"])
        nbs.append(len(boxes)); errs.append(err)
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "n_boxes": pa.array(nbs, pa.int64()),
                  "quant_err": pa.array(errs, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "palette_fixture.parquet"))
    print("palette_fixture.parquet:", t.num_rows, "rows")


def gen_huffman() -> None:
    """Expected q273 per-lang Huffman bound from the INDEPENDENT
    two-queue merge (sorted deque pair, no heap) — any correct Huffman
    yields the same unique optimal total cost."""
    from collections import Counter, deque

    import pandas as pd

    PPM = 1_000_000
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["lang", "text"]).to_pandas()
    rows = []
    for lang, sub in docs.groupby("lang"):
        c = Counter()
        for t in sub["text"]:
            c.update(t.encode("utf-8"))
        w = sorted(c.values())
        n_bytes = sum(w)
        if len(w) == 1:
            bits = n_bytes
        else:
            q1 = deque(w)
            q2 = deque()
            bits = 0

            def popmin():
                if q1 and (not q2 or q1[0] <= q2[0]):
                    return q1.popleft()
                return q2.popleft()

            while len(q1) + len(q2) > 1:
                s = popmin() + popmin()
                bits += s
                q2.append(s)
        rows.append((lang, n_bytes, len(w), bits,
                     (8 * n_bytes - bits) * PPM // (8 * n_bytes)))
    rows.sort()
    t = pa.table({
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "n_bytes": pa.array([r[1] for r in rows], pa.int64()),
        "n_symbols": pa.array([r[2] for r in rows], pa.int64()),
        "huff_bits": pa.array([r[3] for r in rows], pa.int64()),
        "saved_ppm": pa.array([r[4] for r in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "huffman_sf0.01.parquet"))
    print("huffman_sf0.01.parquet:", t.num_rows, "rows")


def gen_crc() -> None:
    """Expected q275 per-image CRC-32 from an INDEPENDENT table-driven
    pure-Python implementation (the query uses zlib's C kernel)."""
    from texrex_ray.pipelines.caption import fixture_path

    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table.append(c)

    def crc32_py(data: bytes) -> int:
        c = 0xFFFFFFFF
        for b in data:
            c = table[(c ^ b) & 0xFF] ^ (c >> 8)
        return c ^ 0xFFFFFFFF

    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet"),
                       columns=["image_id", "fmt", "bytes"]).to_pandas()
    t = pa.table({
        "image_id": pa.array(df["image_id"], pa.string()),
        "fmt": pa.array(df["fmt"], pa.string()),
        "crc": pa.array([crc32_py(bytes(b)) for b in df["bytes"]], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "crc_fixture.parquet"))
    print("crc_fixture.parquet:", t.num_rows, "rows")


def gen_hilbert() -> None:
    """Expected q276 Hilbert codes from the INDEPENDENT scalar xy2d
    walk (the query vectorizes the same s-reflection spec in numpy)."""
    import pandas as pd

    ORDER = 16
    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["event_id", "user_id", "value"]).to_pandas()

    def xy2d(x: int, y: int) -> int:
        d = 0
        s = 1 << (ORDER - 1)
        while s > 0:
            rx = 1 if (x & s) > 0 else 0
            ry = 1 if (y & s) > 0 else 0
            d += s * s * ((3 * rx) ^ ry)
            if ry == 0:
                if rx == 1:
                    x = s - 1 - x
                    y = s - 1 - y
                x, y = y, x
            s //= 2
        return d

    hk = [
        xy2d(int(u), int(round(v * 100)))
        for u, v in zip(ev["user_id"], ev["value"])
    ]
    t = pa.table({
        "event_id": pa.array(ev["event_id"].astype("int64"), pa.int64()),
        "hkey": pa.array(hk, pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "hilbert_sf0.01.parquet"))
    print("hilbert_sf0.01.parquet:", t.num_rows, "rows")


def gen_stable_match() -> None:
    """Expected q278 matching from the INDEPENDENT textbook Gale-Shapley
    (queue of free proposers, dict-of-list preferences built with
    sorted()) — proposer-optimal matching is unique under strict
    preferences, so any correct implementation agrees."""
    from collections import deque

    import pandas as pd

    GS_N = 100
    sup = pq.read_table(f"{SF_DIR}/supplier.parquet",
                        columns=["s_suppkey", "s_acctbal"]).to_pandas()
    cust = pq.read_table(f"{SF_DIR}/customer.parquet",
                         columns=["c_custkey", "c_acctbal"]).to_pandas()
    sup = sup.sort_values("s_suppkey").head(GS_N)
    cust = cust.sort_values("c_custkey").head(len(sup))
    sc = {int(r["s_suppkey"]): int(round(r["s_acctbal"] * 100))
          for _, r in sup.iterrows()}
    cc = {int(r["c_custkey"]): int(round(r["c_acctbal"] * 100))
          for _, r in cust.iterrows()}
    plist = {p_: sorted(cc, key=lambda a: (abs(cc[a] - sc[p_]), a))
             for p_ in sc}
    arank = {a: {p_: i for i, p_ in enumerate(
                 sorted(sc, key=lambda p_: (abs(sc[p_] - cc[a]), p_)))}
             for a in cc}
    nxt = {p_: 0 for p_ in sc}
    held = {}
    free = deque(sorted(sc))
    while free:
        p_ = free.popleft()
        a = plist[p_][nxt[p_]]
        if a not in held:
            held[a] = p_
        elif arank[a][p_] < arank[a][held[a]]:
            old = held[a]
            held[a] = p_
            nxt[old] += 1
            free.append(old)
        else:
            nxt[p_] += 1
            free.append(p_)
    rows = sorted((p_, a, nxt[p_], arank[a][p_]) for a, p_ in held.items())
    t = pa.table({
        "p": pa.array([r[0] for r in rows], pa.int64()),
        "a": pa.array([r[1] for r in rows], pa.int64()),
        "p_rank": pa.array([r[2] for r in rows], pa.int64()),
        "a_rank": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "stable_match_sf0.01.parquet"))
    print("stable_match_sf0.01.parquet:", t.num_rows, "rows")


def gen_histeq() -> None:
    """Expected q279 per-image variances from the INDEPENDENT per-pixel
    scalar twin (dict histogram, no numpy)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet"),
                       columns=["image_id", "fmt", "bytes"]).to_pandas()
    ids, fmts, vb, va = [], [], [], []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"]))
        h, w, _ = px.shape
        lum = [int(px[y, x, 0]) + int(px[y, x, 1]) + int(px[y, x, 2])
               for y in range(h) for x in range(w)]
        n = len(lum)
        hist = {}
        for v in lum:
            hist[v] = hist.get(v, 0) + 1
        cdf = {}
        run = 0
        for v in sorted(hist):
            run += hist[v]
            cdf[v] = run
        cdf_min = cdf[min(hist)]
        if cdf_min == n:
            eq = [0] * n
        else:
            eq = [(cdf[v] - cdf_min) * 765 // (n - cdf_min) for v in lum]

        def var_milli(vals):
            s = sum(vals)
            s2 = sum(v * v for v in vals)
            return (len(vals) * s2 - s * s) * 1000 // (len(vals) ** 2)

        ids.append(r["image_id"]); fmts.append(r["fmt"])
        vb.append(var_milli(lum)); va.append(var_milli(eq))
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "var_before_milli": pa.array(vb, pa.int64()),
                  "var_after_milli": pa.array(va, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "histeq_fixture.parquet"))
    print("histeq_fixture.parquet:", t.num_rows, "rows")


def gen_kll() -> None:
    """Expected q280 sketch estimates from an INDEPENDENT element-wise
    KLL compactor (incremental buffers fed one value at a time; the op
    builds levels by whole-array chunk slicing)."""
    import pandas as pd

    from texrex_ray.functions.hashing import md5_lower64

    K = 64
    B = 32
    STATS = [("p10", 1, 10), ("p50", 1, 2), ("p90", 9, 10), ("p99", 99, 100)]
    li = pq.read_table(
        f"{SF_DIR}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    ).to_pandas()
    keys = [f"{int(o)}:{int(l)}" for o, l in
            zip(li["l_orderkey"], li["l_linenumber"])]
    li["bucket"] = (md5_lower64(keys) % np.uint64(B)).astype(np.int64)
    li["c"] = [int(round(x * 100)) for x in li["l_extendedprice"]]

    def feed(sorted_vals):
        levels = [[]]
        for v in sorted_vals:
            levels[0].append(int(v))
            lvl = 0
            while len(levels[lvl]) >= K:
                buf = sorted(levels[lvl])
                promo = buf[:K][1::2]
                rest = buf[K:]
                levels[lvl] = rest
                if lvl + 1 == len(levels):
                    levels.append([])
                levels[lvl + 1].extend(promo)
                lvl += 1
        return [sorted(b) for b in levels]

    def merge(a, b):
        out = []
        carry = []
        i = 0
        while i < max(len(a), len(b)) or carry:
            buf = sorted(carry + (a[i] if i < len(a) else [])
                         + (b[i] if i < len(b) else []))
            if len(buf) > K:
                if len(buf) % 2:
                    keep, body = [buf[-1]], buf[:-1]
                else:
                    keep, body = [], buf
                out.append(keep)
                carry = body[1::2]
            else:
                out.append(buf)
                carry = []
            i += 1
        return out

    merged = []
    for b in sorted(li["bucket"].unique()):
        vals = sorted(li.loc[li["bucket"] == b, "c"])
        sk = feed(vals)
        merged = merge(merged, sk) if merged else sk
    flat = sorted(
        (v, 1 << lvl) for lvl, buf in enumerate(merged) for v in buf
    )
    w_tot = sum(w for _, w in flat)
    rows = []
    for stat, qn, qd in STATS:
        target = max(1, -(-qn * w_tot // qd))
        run = 0
        est = flat[-1][0]
        for v, w in flat:
            run += w
            if run >= target:
                est = v
                break
        rows.append((stat, est, qn, qd))
    t = pa.table({
        "stat": pa.array([r[0] for r in rows], pa.string()),
        "est_c": pa.array([r[1] for r in rows], pa.int64()),
        "q_num": pa.array([r[2] for r in rows], pa.int64()),
        "q_den": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "kll_sf0.01.parquet"))
    print("kll_sf0.01.parquet:", t.num_rows, "rows")


def gen_otsu() -> None:
    """Expected q282 per-image Otsu stats from the INDEPENDENT
    Fraction-arithmetic twin (w0*w1*(mu0-mu1)^2 maximized as exact
    rationals; the stage cross-multiplies integer numerators)."""
    from fractions import Fraction

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet"),
                       columns=["image_id", "fmt", "bytes"]).to_pandas()
    ids, fmts, ths, etas = [], [], [], []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"])).astype(np.int64)
        lum = px.sum(axis=2).ravel()
        hist = np.bincount(lum, minlength=766)
        n = int(lum.size)
        s = int(lum.sum())
        s2 = int((lum.astype(object) ** 2).sum())
        tot = Fraction(n * s2 - s * s, n * n)
        if tot == 0:
            ids.append(r["image_id"]); fmts.append(r["fmt"])
            ths.append(-1); etas.append(0)
            continue
        best_t, best_v = -1, Fraction(0)
        n0 = s0 = 0
        for t_ in range(766):
            n0 += int(hist[t_])
            s0 += t_ * int(hist[t_])
            if n0 == 0 or n0 == n:
                continue
            w0 = Fraction(n0, n)
            w1 = Fraction(n - n0, n)
            mu0 = Fraction(s0, n0)
            mu1 = Fraction(s - s0, n - n0)
            v = w0 * w1 * (mu0 - mu1) ** 2
            if v > best_v:
                best_t, best_v = t_, v
        eta = best_v / tot
        ids.append(r["image_id"]); fmts.append(r["fmt"])
        ths.append(best_t)
        etas.append((eta.numerator * 1000) // eta.denominator)
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "otsu_thresh": pa.array(ths, pa.int64()),
                  "otsu_eta_milli": pa.array(etas, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "otsu_fixture.parquet"))
    print("otsu_fixture.parquet:", t.num_rows, "rows")


def gen_sobel() -> None:
    """Expected q283 per-image orientation histograms from the
    INDEPENDENT per-pixel nested-branch twin (explicit 3x3 kernel sums
    and if-chains; the stage uses shifted views and bit arithmetic)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    THRESH = 160
    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet"),
                       columns=["image_id", "fmt", "bytes"]).to_pandas()
    ids, fmts, hists, ns = [], [], [], []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"])).astype(int)
        lum = px[:, :, 0] + px[:, :, 1] + px[:, :, 2]
        h, w = lum.shape
        hist = [0] * 8
        n_edge = 0
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                gx = (int(lum[y - 1, x + 1]) + 2 * int(lum[y, x + 1])
                      + int(lum[y + 1, x + 1]) - int(lum[y - 1, x - 1])
                      - 2 * int(lum[y, x - 1]) - int(lum[y + 1, x - 1]))
                gy = (int(lum[y + 1, x - 1]) + 2 * int(lum[y + 1, x])
                      + int(lum[y + 1, x + 1]) - int(lum[y - 1, x - 1])
                      - 2 * int(lum[y - 1, x]) - int(lum[y - 1, x + 1]))
                if abs(gx) + abs(gy) < THRESH:
                    continue
                n_edge += 1
                if gy < 0 or (gy == 0 and gx < 0):
                    lower = True
                else:
                    lower = False
                left = gx < 0
                steep = abs(gy) > abs(gx)
                o = 0
                if lower:
                    o += 4
                if left != lower:
                    o += 2
                if steep:
                    o += 1
                hist[o] += 1
        ids.append(r["image_id"]); fmts.append(r["fmt"])
        hists.append(hist); ns.append(n_edge)
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "ori_hist": pa.array(hists, pa.list_(pa.int64())),
                  "n_edge_px": pa.array(ns, pa.int64())})
    pq.write_table(t, os.path.join(OUT, "sobel_fixture.parquet"))
    print("sobel_fixture.parquet:", t.num_rows, "rows")


def gen_morph() -> None:
    """Expected q284 per-image opening stats from the INDEPENDENT
    scalar neighborhood walk (explicit 9-neighbor loops)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    THRESH = 383
    d = fixture_path(n=300, seed=42)
    df = pq.read_table(os.path.join(d, "images.parquet"),
                       columns=["image_id", "fmt", "bytes"]).to_pandas()
    ids, fmts, fgs, ops = [], [], [], []
    for _, r in df.iterrows():
        px = decode_image(bytes(r["bytes"])).astype(int)
        lum = px[:, :, 0] + px[:, :, 1] + px[:, :, 2]
        h, w = lum.shape
        fg = [[lum[y][x] > THRESH for x in range(w)] for y in range(h)]

        def nb_all(m, y, x):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if not (0 <= yy < h and 0 <= xx < w):
                        return False  # zero padding: border kills erosion
                    if not m[yy][xx]:
                        return False
            return True

        def nb_any(m, y, x):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and m[yy][xx]:
                        return True
            return False

        er = [[nb_all(fg, y, x) for x in range(w)] for y in range(h)]
        op = [[nb_any(er, y, x) for x in range(w)] for y in range(h)]
        ids.append(r["image_id"]); fmts.append(r["fmt"])
        fgs.append(sum(v for row in fg for v in row))
        ops.append(sum(v for row in op for v in row))
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "fmt": pa.array(fmts, pa.string()),
                  "fg_px": pa.array(fgs, pa.int64()),
                  "opened_px": pa.array(ops, pa.int64()),
                  "speckle_px": pa.array(
                      [f - o for f, o in zip(fgs, ops)], pa.int64())})
    pq.write_table(t, os.path.join(OUT, "morph_fixture.parquet"))
    print("morph_fixture.parquet:", t.num_rows, "rows")


def gen_cusum() -> None:
    """Expected q285 per-type CUSUM stats from the INDEPENDENT pandas
    route (value_counts + reindex + itertuples scan)."""
    import pandas as pd

    H_MULT = 5
    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_type"]).to_pandas()
    ev["day"] = (ev["ts"].astype("int64") // 86_400_000_000).astype(int)
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    rows = []
    for et, sub in ev.groupby("event_type"):
        counts = sub["day"].value_counts().reindex(
            range(lo, hi + 1), fill_value=0).sort_index()
        n_days = hi - lo + 1
        total = int(counts.sum())
        k = total // n_days + 1
        h = H_MULT * k
        s = max_s = n_alarms = 0
        first = -1
        for day, x in counts.items():
            s = max(0, s + int(x) - k)
            max_s = max(max_s, s)
            if s > h:
                n_alarms += 1
                if first < 0:
                    first = int(day)
                s = 0
        rows.append((et, n_days, k, h, n_alarms, first, max_s))
    rows.sort()
    t = pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "n_days": pa.array([r[1] for r in rows], pa.int64()),
        "allowance_k": pa.array([r[2] for r in rows], pa.int64()),
        "threshold_h": pa.array([r[3] for r in rows], pa.int64()),
        "n_alarms": pa.array([r[4] for r in rows], pa.int64()),
        "first_alarm_day": pa.array([r[5] for r in rows], pa.int64()),
        "max_s": pa.array([r[6] for r in rows], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "cusum_sf0.01.parquet"))
    print("cusum_sf0.01.parquet:", t.num_rows, "rows")


def gen_kcore() -> None:
    """Expected q287 per-node core numbers from the INDEPENDENT
    Batagelj-Zaversnik bucket-peeling twin (kcore_sequential) over the
    committed pagerank edge fixture."""
    from texrex_ray.ops.graph import kcore_sequential

    e = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet"))
    edges = list(zip(e["src"].to_pylist(), e["dst"].to_pylist()))
    core = kcore_sequential(edges)
    nodes = sorted(core)
    t = pa.table({
        "node": pa.array(nodes, pa.string()),
        "core": pa.array([core[v] for v in nodes], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "kcore_fixture.parquet"))
    print("kcore_fixture.parquet:", t.num_rows, "rows, max core",
          max(core.values()))


def gen_bloom_audit() -> None:
    """Expected q288 audit row from an INDEPENDENT pure-Python-int Bloom
    twin: per-segment bit SETS (no numpy, no bit-packing), blake2b
    double hashing with explicit 2**64 wraparound, replicating the
    sorted-keys / 1024-chunk / any-segment-hits spec scalar-wise."""
    import hashlib
    import math

    import pandas as pd

    CAP, ERR, CHUNK, PROBES = 4096, 0.01, 1024, 50_000

    def hpair(s: str) -> tuple[int, int]:
        d = hashlib.blake2b(s.encode("utf-8"), digest_size=16).digest()
        return (int.from_bytes(d[:8], "little"),
                int.from_bytes(d[8:], "little") | 1)

    def seg_params(cap: int) -> tuple[int, int]:
        bits = int(math.ceil(-cap * math.log(ERR) / (math.log(2) ** 2))) + 1
        k = max(1, int(math.ceil(math.log(2) * bits / cap)))
        return bits, k

    segments: list[dict] = [
        {"cap": CAP, "bits": seg_params(CAP)[0], "k": seg_params(CAP)[1],
         "set": set(), "count": 0}
    ]

    def positions(seg: dict, h1: int, h2: int) -> list[int]:
        return [((h1 + i * h2) % (2 ** 64)) % seg["bits"]
                for i in range(seg["k"])]

    def contains(h1: int, h2: int) -> bool:
        return any(
            all(p in seg["set"] for p in positions(seg, h1, h2))
            for seg in segments
        )

    orders = pq.read_table(f"{SF_DIR}/orders.parquet",
                           columns=["o_orderkey"]).to_pandas()
    keys = [f"u:{k}" for k in sorted(int(x) for x in orders["o_orderkey"])]
    n_added = 0
    for i in range(0, len(keys), CHUNK):
        chunk = keys[i:i + CHUNK]
        fresh = [k for k in chunk if not contains(*hpair(k))]
        tail = segments[-1]
        if tail["count"] + len(fresh) > tail["cap"]:
            cap = tail["cap"] * 2
            bits, kk = seg_params(cap)
            segments.append({"cap": cap, "bits": bits, "k": kk,
                             "set": set(), "count": 0})
            tail = segments[-1]
        for k in fresh:
            h1, h2 = hpair(k)
            for p in positions(tail, h1, h2):
                tail["set"].add(p)
        tail["count"] += len(fresh)
        n_added += len(fresh)
    n_fp = sum(contains(*hpair(f"x:{i}")) for i in range(PROBES))
    t = pa.table({
        "n_keys": pa.array([len(keys)], pa.int64()),
        "n_added": pa.array([n_added], pa.int64()),
        "n_segments": pa.array([len(segments)], pa.int64()),
        "total_bits": pa.array([sum(s["bits"] for s in segments)], pa.int64()),
        "total_set_bits": pa.array([sum(len(s["set"]) for s in segments)],
                                   pa.int64()),
        "n_probes": pa.array([PROBES], pa.int64()),
        "n_fp": pa.array([n_fp], pa.int64()),
        "fpr_ppm": pa.array([n_fp * 1_000_000 // PROBES], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "bloom_audit_sf0.01.parquet"))
    print("bloom_audit_sf0.01.parquet: n_fp", n_fp, "segments", len(segments))



def gen_lz76() -> None:
    """Expected q289 per-doc LZ76 complexities from the INDEPENDENT
    Kaspar-Schuster pointer-walk twin (char-by-char comparisons)."""
    from texrex_ray.functions.complexity import lz76_kaspar_schuster

    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "lang", "text", "n_chars"])
    cs = [lz76_kaspar_schuster(s) for s in t["text"].to_pylist()]
    out = pa.table({
        "doc_id": t["doc_id"],
        "lang": t["lang"],
        "n_chars": t["n_chars"],
        "lz76": pa.array(cs, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "lz76_sf0.01.parquet"))
    print("lz76_sf0.01.parquet:", out.num_rows, "rows")


def gen_boxmeans() -> None:
    """Expected q291 per-box means from the INDEPENDENT direct
    pixel-loop twin (no integral image): box coords re-derived from
    md5(image_id:b), sum accumulated scalar-wise."""
    import hashlib

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    t = pq.read_table(os.path.join(d, "images.parquet"),
                      columns=["image_id", "fmt", "bytes"])
    ids, fmts, idxs, means = [], [], [], []
    for iid, fmt, raw in zip(t["image_id"].to_pylist(),
                             t["fmt"].to_pylist(),
                             t["bytes"].to_pylist()):
        px = decode_image(raw).astype(int)
        h, w = px.shape[0], px.shape[1]
        for b in range(8):
            dg = hashlib.md5(f"{iid}:{b}".encode()).digest()
            y0 = (dg[0] << 8 | dg[1]) % h
            x0 = (dg[2] << 8 | dg[3]) % w
            bh = dg[4] % (h - y0) + 1
            bw = dg[6] % (w - x0) + 1
            s = 0
            for y in range(y0, y0 + bh):
                for x in range(x0, x0 + bw):
                    s += int(px[y, x, 0]) + int(px[y, x, 1]) + int(px[y, x, 2])
            ids.append(iid); fmts.append(fmt); idxs.append(b)
            means.append(s * 1000 // (bh * bw))
    out = pa.table({
        "image_id": pa.array(ids, pa.string()),
        "fmt": pa.array(fmts, pa.string()),
        "box_idx": pa.array(idxs, pa.int64()),
        "mean_milli": pa.array(means, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "boxmeans_fixture.parquet"))
    print("boxmeans_fixture.parquet:", out.num_rows, "rows")


def gen_period() -> None:
    """Expected q293 per-doc smallest periods from the INDEPENDENT
    brute-force shift-check twin (tries each p ascending)."""
    from texrex_ray.functions.complexity import smallest_period_brute

    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "lang", "text", "n_chars"])
    ps = [smallest_period_brute(s) for s in t["text"].to_pylist()]
    out = pa.table({
        "doc_id": t["doc_id"],
        "lang": t["lang"],
        "n_chars": t["n_chars"],
        "period": pa.array(ps, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "period_sf0.01.parquet"))
    print("period_sf0.01.parquet:", out.num_rows, "rows")


def gen_lrs() -> None:
    """Expected q295 per-doc longest-repeated-substring lengths from
    the INDEPENDENT binary-search + rolling-l-gram-set twin."""
    from texrex_ray.functions.complexity import (
        longest_repeated_substring_brute,
    )

    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "lang", "text", "n_chars"])
    ls = [longest_repeated_substring_brute(s) for s in t["text"].to_pylist()]
    out = pa.table({
        "doc_id": t["doc_id"], "lang": t["lang"], "n_chars": t["n_chars"],
        "lrs": pa.array(ls, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "lrs_sf0.01.parquet"))
    print("lrs_sf0.01.parquet:", out.num_rows, "rows")


def gen_intsched() -> None:
    """Expected q296 per-user max non-overlapping sessions from the
    INDEPENDENT DP twin (sort by end, bisect predecessor, dp array)."""
    import bisect

    import pandas as pd

    SESSION_US = 1_800_000_000
    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["start"] = ev["ts"].astype("int64")
    rows = []
    for uid, sub in ev.groupby("user_id"):
        ivs = sorted((int(s) + SESSION_US, int(s)) for s in sub["start"])
        ends = [e for e, _ in ivs]
        dp = [0] * (len(ivs) + 1)
        for i, (e, st) in enumerate(ivs, 1):
            j = bisect.bisect_right(ends, st, 0, i - 1)
            dp[i] = max(dp[i - 1], dp[j] + 1)
        rows.append((int(uid), len(ivs), dp[len(ivs)]))
    rows.sort()
    out = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_events": pa.array([r[1] for r in rows], pa.int64()),
        "n_selected": pa.array([r[2] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "intsched_sf0.01.parquet"))
    print("intsched_sf0.01.parquet:", out.num_rows, "users")


def gen_dsub() -> None:
    """Expected q297 per-doc distinct-substring counts from the
    INDEPENDENT suffix-array twin (n(n+1)/2 - sum adjacent LCP)."""
    from texrex_ray.functions.complexity import (
        distinct_substrings_suffixarray,
    )

    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "lang", "text", "n_chars"])
    ds_ = [distinct_substrings_suffixarray(s) for s in t["text"].to_pylist()]
    out = pa.table({
        "doc_id": t["doc_id"], "lang": t["lang"], "n_chars": t["n_chars"],
        "n_distinct": pa.array(ds_, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "dsub_sf0.01.parquet"))
    print("dsub_sf0.01.parquet:", out.num_rows, "rows")


def gen_haar() -> None:
    """Expected q298 per-image Haar band energies from the INDEPENDENT
    scalar 2x2-block walk twin (Python ints, no numpy vector ops)."""
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    LEVELS = 2
    d = fixture_path(n=300, seed=42)
    t = pq.read_table(os.path.join(d, "images.parquet"),
                      columns=["image_id", "fmt", "bytes"])
    ids, fmts, bands, es = [], [], [], []
    for iid, fmt, raw in zip(t["image_id"].to_pylist(),
                             t["fmt"].to_pylist(),
                             t["bytes"].to_pylist()):
        px = decode_image(raw)
        h0, w0 = px.shape[0], px.shape[1]
        ll = [[int(px[y, x, 0]) + int(px[y, x, 1]) + int(px[y, x, 2])
               for x in range(w0)] for y in range(h0)]
        for lv in range(1, LEVELS + 1):
            h, w = len(ll) - len(ll) % 2, len(ll[0]) - len(ll[0]) % 2
            if h == 0 or w == 0:
                break
            lh = hl = hh = 0
            nxt = []
            for y in range(0, h, 2):
                row = []
                for x in range(0, w, 2):
                    a, b = ll[y][x], ll[y][x + 1]
                    c, dd = ll[y + 1][x], ll[y + 1][x + 1]
                    lh += (a - b + c - dd) ** 2
                    hl += (a + b - c - dd) ** 2
                    hh += (a - b - c + dd) ** 2
                    row.append(a + b + c + dd)
                nxt.append(row)
            for bn, e in ((f"LH{lv}", lh), (f"HL{lv}", hl), (f"HH{lv}", hh)):
                ids.append(iid); fmts.append(fmt); bands.append(bn)
                es.append(e)
            ll = nxt
        lle = sum(v * v for row in ll for v in row)
        ids.append(iid); fmts.append(fmt); bands.append(f"LL{LEVELS}")
        es.append(lle)
    out = pa.table({
        "image_id": pa.array(ids, pa.string()),
        "fmt": pa.array(fmts, pa.string()),
        "band": pa.array(bands, pa.string()),
        "energy": pa.array(es, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "haar_fixture.parquet"))
    print("haar_fixture.parquet:", out.num_rows, "rows")


def gen_density() -> None:
    """Expected q299 per-vector neighbor counts from the INDEPENDENT
    scalar per-pair integer loop twin."""
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    ids = t["vec_id"].to_pylist()
    labels = t["label"].to_pylist()
    vecs = [[int(round(float(x) * 1000.0)) for x in v]
            for v in t["embedding"].to_pylist()]
    R = 1_400_000
    n = len(vecs)
    counts = [0] * n
    for i in range(n):
        vi = vecs[i]
        for j in range(i + 1, n):
            vj = vecs[j]
            s = 0
            for a, b in zip(vi, vj):
                s += (a - b) * (a - b)
                if s > R:
                    break
            if s <= R:
                counts[i] += 1
                counts[j] += 1
    out = pa.table({
        "vec_id": pa.array([int(i) for i in ids], pa.int64()),
        "label": pa.array([int(l) for l in labels], pa.int64()),
        "n_neighbors": pa.array(counts, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "density_sf0.01.parquet"))
    print("density_sf0.01.parquet:", out.num_rows, "rows, cores",
          sum(c >= 5 for c in counts))


def gen_diameter() -> None:
    """Expected q300 double-sweep row from the INDEPENDENT deque-BFS
    twin (ops/graph.py::double_sweep_sequential)."""
    from texrex_ray.ops.graph import double_sweep_sequential

    e = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet"))
    r = double_sweep_sequential(
        list(zip(e["src"].to_pylist(), e["dst"].to_pylist())))
    out = pa.table({
        "start_node": pa.array([r["start_node"]], pa.string()),
        "ecc_start": pa.array([r["ecc_start"]], pa.int64()),
        "peak_node": pa.array([r["peak_node"]], pa.string()),
        "ecc_peak": pa.array([r["ecc_peak"]], pa.int64()),
        "n_reached": pa.array([r["n_reached"]], pa.int64()),
        "n_nodes": pa.array([r["n_nodes"]], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "diameter_fixture.parquet"))
    print("diameter_fixture.parquet:", r)


def gen_lis() -> None:
    """Expected q302 per-user LIS lengths from the INDEPENDENT O(n^2)
    DP twin (no bisect/patience)."""
    import pandas as pd

    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_id", "user_id", "value"]
                       ).to_pandas()
    ev = ev.sort_values(["ts", "event_id"])
    rows = []
    for uid, sub in ev.groupby("user_id"):
        vals = [int(round(float(v) * 100)) for v in sub["value"]]
        n = len(vals)
        dp = [1] * n
        for i in range(n):
            for j in range(i):
                if vals[j] < vals[i] and dp[j] + 1 > dp[i]:
                    dp[i] = dp[j] + 1
        rows.append((int(uid), n, max(dp) if dp else 0))
    rows.sort()
    out = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_events": pa.array([r[1] for r in rows], pa.int64()),
        "lis_len": pa.array([r[2] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "lis_sf0.01.parquet"))
    print("lis_sf0.01.parquet:", out.num_rows, "users")


def gen_belady() -> None:
    """Expected q303 hit counts from the INDEPENDENT twin: OrderedDict
    LRU (move_to_end/popitem) + per-key occurrence-list OPT."""
    from collections import OrderedDict

    import pandas as pd

    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_id", "user_id"]).to_pandas()
    trace = [int(u) for u in
             ev.sort_values(["ts", "event_id"])["user_id"]]
    n = len(trace)
    # per-key occurrence lists + a moving pointer per key
    occ: dict[int, list] = {}
    for i, k in enumerate(trace):
        occ.setdefault(k, []).append(i)
    rows = []
    for cap in (4, 8, 16, 32):
        lru: OrderedDict = OrderedDict()
        lru_hits = 0
        for k in trace:
            if k in lru:
                lru_hits += 1
                lru.move_to_end(k)
            else:
                if len(lru) >= cap:
                    lru.popitem(last=False)
                lru[k] = True
        ptr = {k: 0 for k in occ}
        res: dict[int, int] = {}
        opt_hits = 0
        for i, k in enumerate(trace):
            ptr[k] += 1
            nxt = occ[k][ptr[k]] if ptr[k] < len(occ[k]) else n
            if k in res:
                opt_hits += 1
            elif len(res) >= cap:
                victim = None
                best = (-1, -1)
                for rk, rn in res.items():
                    if (rn, rk) > best:
                        best = (rn, rk)
                        victim = rk
                del res[victim]
            res[k] = nxt
        rows.append((cap, n, lru_hits, opt_hits))
    out = pa.table({
        "cache_size": pa.array([r[0] for r in rows], pa.int64()),
        "n_accesses": pa.array([r[1] for r in rows], pa.int64()),
        "lru_hits": pa.array([r[2] for r in rows], pa.int64()),
        "opt_hits": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "belady_sf0.01.parquet"))
    print("belady_sf0.01.parquet:", rows)


def gen_dgim() -> None:
    """Expected q304 DGIM sketch rows from the INDEPENDENT carry/deque
    twin (binary-counter level propagation instead of list scans)."""
    from collections import deque

    import pandas as pd

    K = 2
    W = 14 * 86_400_000_000
    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_type"]).to_pandas()
    ev["t"] = ev["ts"].astype("int64")
    rows = []
    for et, sub in ev.groupby("event_type"):
        ts_list = sorted(int(x) for x in sub["t"])
        levels: dict = {}
        for t in ts_list:
            levels.setdefault(1, deque()).append(t)
            s = 1
            while len(levels.get(s, ())) > K:
                levels[s].popleft()
                t1 = levels[s].popleft()
                levels.setdefault(2 * s, deque()).append(t1)
                s *= 2
        t_end = ts_list[-1]
        buckets = sorted(
            (ts, sz) for sz, dq in levels.items() for ts in dq
            if ts > t_end - W
        )
        total = sum(sz for _, sz in buckets)
        oldest = buckets[0][1] if buckets else 0
        est = (total - oldest + oldest // 2 + (oldest % 2)) if buckets else 0
        rows.append((et, est, len(buckets), oldest))
    rows.sort()
    out = pa.table({
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "est_w": pa.array([r[1] for r in rows], pa.int64()),
        "n_buckets": pa.array([r[2] for r in rows], pa.int64()),
        "oldest_size": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "dgim_sf0.01.parquet"))
    print("dgim_sf0.01.parquet:", rows)


def gen_p2c() -> None:
    """Expected q306 load stats from the INDEPENDENT dict-walk twin
    (per-item hashlib calls, dict loads, no numpy)."""
    import hashlib

    B = 64
    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id"])
    ids = sorted(int(x) for x in t["doc_id"].to_pylist())

    def h(s: str) -> int:
        return int.from_bytes(hashlib.md5(s.encode()).digest()[8:],
                              "little") % B

    single: dict = {}
    loads: dict = {}
    for i in ids:
        h1, h2 = h(f"{i}:1"), h(f"{i}:2")
        single[h1] = single.get(h1, 0) + 1
        l1, l2 = loads.get(h1, 0), loads.get(h2, 0)
        pick = h1 if (l1 < l2 or (l1 == l2 and h1 <= h2)) else h2
        loads[pick] = loads.get(pick, 0) + 1
    rows = [
        ("p2c", max(loads.values()), len(loads),
         sum(v * v for v in loads.values())),
        ("single", max(single.values()), len(single),
         sum(v * v for v in single.values())),
    ]
    out = pa.table({
        "scheme": pa.array([r[0] for r in rows], pa.string()),
        "max_load": pa.array([r[1] for r in rows], pa.int64()),
        "nonempty": pa.array([r[2] for r in rows], pa.int64()),
        "sum_sq": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "p2c_sf0.01.parquet"))
    print("p2c_sf0.01.parquet:", rows)


def gen_wis() -> None:
    """Expected q307 per-user weighted-interval optima from the
    INDEPENDENT recursive-memo twin (take/skip recursion, bisect-free
    linear predecessor scan)."""
    import sys

    import pandas as pd

    SESSION_US = 1_800_000_000
    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_id", "user_id", "value"]
                       ).to_pandas()
    ev = ev.sort_values(["ts", "event_id"])
    sys.setrecursionlimit(100_000)
    rows = []
    for uid, sub in ev.groupby("user_id"):
        st = [int(x) for x in sub["ts"].astype("int64")]
        val = [int(round(float(v) * 100)) for v in sub["value"]]
        ivs = sorted(zip([s + SESSION_US for s in st], st, val))
        n = len(ivs)
        pred = []
        for i in range(n):
            p = 0
            for j in range(i - 1, -1, -1):
                if ivs[j][0] <= ivs[i][1]:
                    p = j + 1
                    break
            pred.append(p)
        memo: dict = {}

        def opt(i: int) -> int:
            if i == 0:
                return 0
            if i in memo:
                return memo[i]
            r = max(opt(i - 1), ivs[i - 1][2] + opt(pred[i - 1]))
            memo[i] = r
            return r

        rows.append((int(uid), n, sum(val), opt(n)))
    rows.sort()
    out = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_events": pa.array([r[1] for r in rows], pa.int64()),
        "total_value_c": pa.array([r[2] for r in rows], pa.int64()),
        "best_value_c": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "wis_sf0.01.parquet"))
    print("wis_sf0.01.parquet:", out.num_rows, "users")


def gen_merkle() -> None:
    """Expected q308 root from the INDEPENDENT level-recursive twin
    (recurse on levels instead of an iterative while loop)."""
    import hashlib

    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    t = t.sort_values("doc_id")
    leaves = [hashlib.md5(s.encode()).digest() for s in t["text"]]

    def fold(level, depth):
        if len(level) == 1:
            return level[0], depth
        nxt = [hashlib.blake2b(level[i] + level[i + 1],
                               digest_size=16).digest()
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        return fold(nxt, depth + 1)

    root, depth = fold(leaves, 0)
    out = pa.table({
        "n_leaves": pa.array([len(leaves)], pa.int64()),
        "depth": pa.array([depth], pa.int64()),
        "root_hex": pa.array([root.hex()], pa.string()),
    })
    pq.write_table(out, os.path.join(OUT, "merkle_sf0.01.parquet"))
    print("merkle_sf0.01.parquet:", len(leaves), "leaves depth", depth)


def gen_cdc() -> None:
    """Expected q309 per-doc chunks from the INDEPENDENT scalar
    Python-int rolling-hash twin (incremental update, no numpy)."""
    import hashlib

    W, B, M = 8, 257, 64
    MOD = 1 << 64
    t = pq.read_table(f"{SF_DIR}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    t = t.sort_values("doc_id")
    dids, idxs, lens, md5s = [], [], [], []
    topw = pow(B, W - 1, MOD)
    for did, txt in zip(t["doc_id"], t["text"]):
        raw = txt.encode()
        n = len(raw)
        cuts = set()
        if n >= W:
            h = 0
            for j in range(W):
                h = (h * B + raw[j]) % MOD
            if h % M == 0:
                cuts.add(W)
            for i in range(1, n - W + 1):
                h = ((h - raw[i - 1] * topw) * B + raw[i + W - 1]) % MOD
                if h % M == 0:
                    cuts.add(i + W)
        cuts.add(n)
        prev = 0
        ci = 0
        for c in sorted(cuts):
            if c > prev:
                piece = raw[prev:c]
                dids.append(int(did)); idxs.append(ci)
                lens.append(len(piece))
                md5s.append(hashlib.md5(piece).hexdigest())
                prev = c
                ci += 1
    out = pa.table({
        "doc_id": pa.array(dids, pa.int64()),
        "chunk_idx": pa.array(idxs, pa.int64()),
        "chunk_len": pa.array(lens, pa.int64()),
        "chunk_md5": pa.array(md5s, pa.string()),
    })
    pq.write_table(out, os.path.join(OUT, "cdc_sf0.01.parquet"))
    print("cdc_sf0.01.parquet:", out.num_rows, "chunks over", len(t), "docs")


def gen_maxflow() -> None:
    """Expected q310 flow value from the INDEPENDENT Dinic twin."""
    import sys

    sys.setrecursionlimit(100_000)
    from texrex_ray.ops.graph import maxflow_dinic

    dm = pq.read_table(os.path.join(OUT, "diameter_fixture.parquet")
                       ).to_pandas().iloc[0]
    s, t = str(dm["start_node"]), str(dm["peak_node"])
    e = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet"))
    f = maxflow_dinic(list(zip(e["src"].to_pylist(),
                               e["dst"].to_pylist())), s, t)
    out = pa.table({
        "s_node": pa.array([s], pa.string()),
        "t_node": pa.array([t], pa.string()),
        "max_flow": pa.array([f], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "maxflow_fixture.parquet"))
    print("maxflow_fixture.parquet:", s, "->", t, "flow", f)


def gen_matching() -> None:
    """Expected q311 matching size from the INDEPENDENT Kuhn twin."""
    import sys

    from texrex_ray.ops.graph import kuhn_matching

    li = pq.read_table(f"{SF_DIR}/lineitem.parquet",
                       columns=["l_suppkey", "l_partkey"]).to_pandas()
    pairs = sorted({(f"s{int(s)}", f"p{int(p)}")
                    for s, p in zip(li["l_suppkey"], li["l_partkey"])})
    sys.setrecursionlimit(max(10_000, 4 * len(pairs)))
    m = kuhn_matching(pairs)
    out = pa.table({
        "n_suppliers": pa.array([len({a for a, _ in pairs})], pa.int64()),
        "n_parts": pa.array([len({b for _, b in pairs})], pa.int64()),
        "n_edges": pa.array([len(pairs)], pa.int64()),
        "matching": pa.array([m], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "matching_sf0.01.parquet"))
    print("matching_sf0.01.parquet:", len(pairs), "edges, matching", m)


def gen_selinger() -> None:
    """Expected q312 row from the INDEPENDENT permutation-enumeration
    twin with pandas-merge cardinalities."""
    from itertools import permutations

    import pandas as pd

    cust = pq.read_table(f"{SF_DIR}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nat = pq.read_table(f"{SF_DIR}/nation.parquet",
                        columns=["n_nationkey"]).to_pandas()
    orders = pq.read_table(f"{SF_DIR}/orders.parquet",
                           columns=["o_orderkey", "o_custkey"]).to_pandas()
    li = pq.read_table(f"{SF_DIR}/lineitem.parquet",
                       columns=["l_orderkey"]).to_pandas()
    co = len(orders.merge(cust, left_on="o_custkey", right_on="c_custkey"))
    ol = len(li.merge(orders, left_on="l_orderkey", right_on="o_orderkey"))
    cn = len(cust.merge(nat, left_on="c_nationkey", right_on="n_nationkey"))
    cdf = cust.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    con = len(orders.merge(cdf, left_on="o_custkey", right_on="c_custkey"))
    odf = orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
    col = len(li.merge(odf, left_on="l_orderkey", right_on="o_orderkey"))
    odf2 = orders.merge(cdf, left_on="o_custkey", right_on="c_custkey")
    conl = len(li.merge(odf2, left_on="l_orderkey", right_on="o_orderkey"))
    card = {
        frozenset("co"): co, frozenset("ol"): ol, frozenset("cn"): cn,
        frozenset("col"): col, frozenset("con"): con,
        frozenset("coln"): conl,
    }
    preds = {frozenset("co"), frozenset("ol"), frozenset("cn")}

    def connected_prefixes(perm):
        cur = set()
        for t in perm:
            if cur and not any(frozenset((t, s)) in preds for s in cur):
                return False
            cur.add(t)
        return True

    cands = []
    for perm in permutations("clno"):
        if not connected_prefixes(perm):
            continue
        cost = 0
        cur = set()
        for t in perm:
            cur.add(t)
            if len(cur) >= 2:
                cost += card[frozenset(cur)]
        cands.append((cost, "".join(perm)))
    best = min(cands)
    worst = max(cands)
    out = pa.table({
        "best_order": pa.array([best[1]], pa.string()),
        "best_cost": pa.array([best[0]], pa.int64()),
        "worst_order": pa.array([worst[1]], pa.string()),
        "worst_cost": pa.array([worst[0]], pa.int64()),
        "n_valid_orders": pa.array([len(cands)], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "selinger_sf0.01.parquet"))
    print("selinger_sf0.01.parquet:", best, worst, len(cands))


def gen_bridges() -> None:
    """Expected q313 counts from the INDEPENDENT removal-recount twin
    (remove each edge/node, BFS component recount)."""
    from texrex_ray.ops.graph import bridges_articulation_brute

    e = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet"))
    r = bridges_articulation_brute(
        list(zip(e["src"].to_pylist(), e["dst"].to_pylist())))
    out = pa.table({k: pa.array([v], pa.int64()) for k, v in r.items()})
    pq.write_table(out, os.path.join(OUT, "bridges_fixture.parquet"))
    print("bridges_fixture.parquet:", r)


def gen_bpe() -> None:
    """Expected q325 merge sequence from an INDEPENDENT scalar twin:
    pandas word count + list-splice merge application (no tuples)."""
    import pandas as pd

    K = 8
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["text"]).to_pandas()
    wf: dict = {}
    for txt in docs["text"]:
        for w in txt.split(" "):
            if w:
                wf[w] = wf.get(w, 0) + 1
    seqs = {w: list(w) for w in wf}
    rows = []
    for idx in range(K):
        counts: dict = {}
        for w, seq in seqs.items():
            for i in range(len(seq) - 1):
                p = (seq[i], seq[i + 1])
                counts[p] = counts.get(p, 0) + wf[w]
        if not counts:
            break
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), f = items[0]
        rows.append((idx, l, r, f))
        for w in seqs:
            seq = seqs[w]
            i = 0
            while i < len(seq) - 1:
                if seq[i] == l and seq[i + 1] == r:
                    seq[i:i + 2] = [l + r]
                else:
                    i += 1
    out = pa.table({
        "merge_idx": pa.array([r[0] for r in rows], pa.int64()),
        "left_sym": pa.array([r[1] for r in rows], pa.string()),
        "right_sym": pa.array([r[2] for r in rows], pa.string()),
        "pair_freq": pa.array([r[3] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "bpe_sf0.01.parquet"))
    print("bpe_sf0.01.parquet:", rows[:3], "...")


def gen_knnnoise() -> None:
    """Expected q326 per-vector majority labels from the INDEPENDENT
    scalar per-pair integer-dot twin."""
    K = 5
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    ids = [int(x) for x in t["vec_id"].to_pylist()]
    labels = [int(x) for x in t["label"].to_pylist()]
    vecs = [[int(round(float(x) * 1000.0)) for x in v]
            for v in t["embedding"].to_pylist()]
    n = len(vecs)
    majs = []
    for i in range(n):
        dots = []
        for j in range(n):
            if j == i:
                continue
            d = sum(a * b for a, b in zip(vecs[i], vecs[j]))
            dots.append((-d, ids[j], labels[j]))
        dots.sort()
        cnt: dict = {}
        for _, _, lab in dots[:K]:
            cnt[lab] = cnt.get(lab, 0) + 1
        majs.append(min(cnt, key=lambda l: (-cnt[l], l)))
    out = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "label": pa.array(labels, pa.int64()),
        "maj_label": pa.array(majs, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "knnnoise_sf0.01.parquet"))
    print("knnnoise_sf0.01.parquet:",
          sum(m != l for m, l in zip(majs, labels)), "disagreements")


def gen_cascade() -> None:
    """Expected q328 rounds from the INDEPENDENT scalar adjacency-walk
    twin (dict adjacency, per-node neighbor scan each round)."""
    import hashlib

    SEEDS = 25
    e = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")
                      ).to_pandas()
    e = e[e["src"] != e["dst"]].drop_duplicates()
    in_nb: dict = {}
    nodes = set()
    for s, d in zip(e["src"], e["dst"]):
        in_nb.setdefault(d, set()).add(s)
        nodes.add(s); nodes.add(d)
    nodes = sorted(nodes)
    thr = {v: int.from_bytes(hashlib.md5(f"lt:{v}".encode()).digest()[:4],
                             "little") % 100 + 1 for v in nodes}
    indeg = {v: len(in_nb.get(v, ())) for v in nodes}
    seeds = sorted(nodes, key=lambda v: (-indeg[v], v))[:SEEDS]
    active = set(seeds)
    rows = [(0, SEEDS, SEEDS)]
    rnd = 0
    while rnd < 10:
        rnd += 1
        newly = set()
        for v in nodes:
            if v in active or indeg[v] == 0:
                continue
            k = sum(1 for u in in_nb[v] if u in active)
            if k * 100 >= thr[v] * indeg[v]:
                newly.add(v)
        if not newly:
            break
        active |= newly
        rows.append((rnd, len(newly), len(active)))
    out = pa.table({
        "round": pa.array([r[0] for r in rows], pa.int64()),
        "n_new": pa.array([r[1] for r in rows], pa.int64()),
        "n_active": pa.array([r[2] for r in rows], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "cascade_fixture.parquet"))
    print("cascade_fixture.parquet:", rows)


def gen_clustcoef() -> None:
    """Expected q329 per-node wedge/triangle counts from the
    INDEPENDENT dict-set twin."""
    e = pq.read_table(os.path.join(OUT, "pagerank_edges.parquet")
                      ).to_pandas()
    und = {(a, b) if a < b else (b, a)
           for a, b in zip(e["src"], e["dst"]) if a != b}
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    nodes = sorted(adj)
    vs, t2s, ws, bks = [], [], [], []
    for v in nodes:
        nb = adj[v]
        t2 = sum(len(adj[u] & nb) for u in nb)
        d = len(nb)
        vs.append(v); t2s.append(t2); ws.append(d * (d - 1))
        bks.append(int(d).bit_length())
    out = pa.table({
        "node": pa.array(vs, pa.string()),
        "tri2": pa.array(t2s, pa.int64()),
        "wedges": pa.array(ws, pa.int64()),
        "deg_bucket": pa.array(bks, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "clustcoef_fixture.parquet"))
    print("clustcoef_fixture.parquet:", len(nodes), "nodes")


def gen_kmeans1d() -> None:
    """Expected q331 clusters from the INDEPENDENT scalar Lloyd twin
    (per-point Python loops, no numpy broadcasting)."""
    K, ITERS = 8, 8
    t = pq.read_table(f"{SF_DIR}/orders.parquet", columns=["o_totalprice"])
    vals = [int(round(float(x) * 100)) for x in t["o_totalprice"].to_pylist()]
    lo, hi = min(vals), max(vals)
    cent = [lo + (hi - lo) * (2 * i + 1) // (2 * K) for i in range(K)]
    for _ in range(ITERS):
        sums = [0] * K
        cnts = [0] * K
        for v in vals:
            best, bd = 0, abs(v - cent[0])
            for i in range(1, K):
                d = abs(v - cent[i])
                if d < bd:
                    best, bd = i, d
            sums[best] += v
            cnts[best] += 1
        new = [sums[i] // cnts[i] if cnts[i] else cent[i] for i in range(K)]
        if new == cent:
            break
        cent = new
    sums = [0] * K
    cnts = [0] * K
    for v in vals:
        best, bd = 0, abs(v - cent[0])
        for i in range(1, K):
            d = abs(v - cent[i])
            if d < bd:
                best, bd = i, d
        sums[best] += v
        cnts[best] += 1
    keep = [i for i in range(K) if cnts[i]]
    out = pa.table({
        "bucket": pa.array(keep, pa.int64()),
        "centroid_c": pa.array([cent[i] for i in keep], pa.int64()),
        "n": pa.array([cnts[i] for i in keep], pa.int64()),
        "sum_c": pa.array([sums[i] for i in keep], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "kmeans1d_sf0.01.parquet"))
    print("kmeans1d_sf0.01.parquet:", list(zip(keep, [cnts[i] for i in keep])))


def gen_drr() -> None:
    """Expected q333 schedule from the INDEPENDENT deque twin."""
    from collections import deque

    import pandas as pd

    QUANTUM, ROUNDS = 1_000, 200
    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_id", "event_type", "value"]
                       ).to_pandas()
    ev = ev.sort_values(["ts", "event_id"])
    queues = {}
    for et, sub in ev.groupby("event_type"):
        queues[et] = deque(
            max(int(round(float(v) * 100)), 1) for v in sub["value"])
    types = sorted(queues)
    totals = {t: len(queues[t]) for t in types}
    deficit = {t: 0 for t in types}
    served = {t: 0 for t in types}
    value = {t: 0 for t in types}
    for _ in range(ROUNDS):
        for t in types:
            q = queues[t]
            if not q:
                deficit[t] = 0
                continue
            deficit[t] += QUANTUM
            while q and q[0] <= deficit[t]:
                s = q.popleft()
                deficit[t] -= s
                value[t] += s
                served[t] += 1
            if not q:
                deficit[t] = 0
    out = pa.table({
        "event_type": pa.array(types, pa.string()),
        "n_served": pa.array([served[t] for t in types], pa.int64()),
        "served_value_c": pa.array([value[t] for t in types], pa.int64()),
        "backlog": pa.array([totals[t] - served[t] for t in types],
                            pa.int64()),
        "deficit_end": pa.array([deficit[t] for t in types], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "drr_sf0.01.parquet"))
    print("drr_sf0.01.parquet:", [(t, served[t]) for t in types])


def gen_mst() -> None:
    """Expected q337 MSF summary from an INDEPENDENT Kruskal twin
    (sort-by-weight + path-halving union-find; every MSF shares the
    same total weight and edge count, so the row is plan-invariant)."""
    import duckdb

    con = duckdb.connect()
    edges = con.execute(
        f"""
        SELECT l_suppkey AS src, l_partkey + 1000000 AS dst,
               CAST(ROUND(MIN(l_extendedprice) * 100) AS BIGINT) AS w_c
        FROM read_parquet('{SF_DIR}/lineitem.parquet')
        GROUP BY 1, 2 ORDER BY w_c, src, dst
        """
    ).fetchall()
    nodes = sorted({v for s, d, _ in edges for v in (s, d)})
    pos = {v: i for i, v in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    w_total = 0
    n_mst = 0
    for s, d, w in edges:
        ra, rb = find(pos[s]), find(pos[d])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            w_total += w
            n_mst += 1
    n_comp = len({find(i) for i in range(len(nodes))})
    out = pa.table({
        "n_nodes": pa.array([len(nodes)], pa.int64()),
        "n_edges": pa.array([len(edges)], pa.int64()),
        "n_components": pa.array([n_comp], pa.int64()),
        "n_mst_edges": pa.array([n_mst], pa.int64()),
        "mst_weight_c": pa.array([w_total], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "mst_sf0.01.parquet"))
    print("mst_sf0.01.parquet:", len(nodes), "nodes,", n_mst,
          "mst edges, weight", w_total)


def gen_sssp() -> None:
    """Expected q341 SSSP summary from an INDEPENDENT binary-heap
    Dijkstra twin over the same undirected weighted graph."""
    import duckdb
    import heapq

    con = duckdb.connect()
    rows = con.execute(
        f"""
        SELECT l_suppkey AS s, l_partkey + 1000000 AS d,
               CAST(ROUND(MIN(l_extendedprice) * 100) AS BIGINT) AS w_c
        FROM read_parquet('{SF_DIR}/lineitem.parquet')
        GROUP BY 1, 2
        """
    ).fetchall()
    adj: dict[int, list[tuple[int, int]]] = {}
    for s, d, w in rows:
        adj.setdefault(s, []).append((d, w))
        adj.setdefault(d, []).append((s, w))
    nodes = sorted(adj)
    src = nodes[0]
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist.get(v, 1 << 62):
            continue
        for u, w in adj[v]:
            nd = dv + w
            if nd < dist.get(u, 1 << 62):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    vals = list(dist.values())
    out = pa.table({
        "n_nodes": pa.array([len(nodes)], pa.int64()),
        "n_reached": pa.array([len(vals)], pa.int64()),
        "sum_dist_c": pa.array([sum(vals)], pa.int64()),
        "max_dist_c": pa.array([max(vals)], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "sssp_sf0.01.parquet"))
    print("sssp_sf0.01.parquet:", len(nodes), "nodes, reached",
          len(vals), "sum", sum(vals), "max", max(vals))


def gen_bwt() -> None:
    """Expected q343 per-source BWT run counts from the INDEPENDENT
    explicit-rotation-sort twin."""
    import pandas as pd
    from texrex_ray.functions.complexity import bwt_runs_rotations

    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    rows = []
    for src, sub in docs.groupby("source"):
        n_c = n_r = 0
        for t in sub["text"]:
            c, r = bwt_runs_rotations(str(t)[:512])
            n_c += c
            n_r += r
        rows.append((src, len(sub), n_c, n_r, n_r * 1_000_000 // n_c))
    out = pa.Table.from_pandas(
        pd.DataFrame(rows, columns=["source", "n_docs", "sum_chars",
                                    "sum_runs", "runs_ppm"]).astype(
            {"n_docs": "int64", "sum_chars": "int64", "sum_runs": "int64",
             "runs_ppm": "int64"}),
        preserve_index=False)
    pq.write_table(out, os.path.join(OUT, "bwt_sf0.01.parquet"))
    print("bwt_sf0.01.parquet:", len(rows), "sources")


def gen_dt() -> None:
    """Expected q344 per-fmt L1 distance-transform stats from the
    INDEPENDENT multi-source BFS-dilation twin (layered 4-neighbour
    min-propagation — L1 distance on an obstacle-free grid)."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw)
        lum = px.astype(np.int64).sum(axis=2)
        fg = lum >= 383
        n_fg = int(fg.sum())
        if n_fg == 0:
            rows.append((fmt, n_fg, 0, -1))
            continue
        h, w = fg.shape
        inf = np.int64(h + w + 2)
        dt = np.where(fg, np.int64(0), inf)
        # layered dilation: dist = min(neighbours) + 1 per sweep
        while True:
            nxt = dt.copy()
            nxt[1:, :] = np.minimum(nxt[1:, :], dt[:-1, :] + 1)
            nxt[:-1, :] = np.minimum(nxt[:-1, :], dt[1:, :] + 1)
            nxt[:, 1:] = np.minimum(nxt[:, 1:], dt[:, :-1] + 1)
            nxt[:, :-1] = np.minimum(nxt[:, :-1], dt[:, 1:] + 1)
            if np.array_equal(nxt, dt):
                break
            dt = nxt
        rows.append((fmt, n_fg, int(dt.sum()), int(dt.max())))
    df = pd.DataFrame(rows, columns=["fmt", "n_fg", "sum_dt", "max_dt"])
    agg = df.groupby("fmt").agg(
        n_images=("n_fg", "size"), n_fg=("n_fg", "sum"),
        sum_dt=("sum_dt", "sum"), max_dt=("max_dt", "max")
    ).reset_index().astype({"n_images": "int64", "n_fg": "int64",
                            "sum_dt": "int64", "max_dt": "int64"})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "dt_sf0.01.parquet"))
    print("dt_sf0.01.parquet:")
    print(agg)


def gen_hull() -> None:
    """Expected q346 per-fmt hull stats from the INDEPENDENT Jarvis
    gift-wrapping twin over the same per-row extreme points."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import hull_area2, jarvis_march

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw)
        lum = px.astype(np.int64).sum(axis=2)
        fg = lum >= 383
        n_fg = int(fg.sum())
        if n_fg == 0:
            rows.append((fmt, 0, 0, 0))
            continue
        w = fg.shape[1]
        sel = fg.any(axis=1)
        ys = np.nonzero(sel)[0]
        first = fg[sel].argmax(axis=1)
        last = w - 1 - fg[sel][:, ::-1].argmax(axis=1)
        pts = [(int(x), int(y)) for x, y in zip(first, ys)]
        pts += [(int(x), int(y)) for x, y in zip(last, ys)]
        hull = jarvis_march(pts)
        rows.append((fmt, n_fg, hull_area2(hull), len(hull)))
    df = pd.DataFrame(rows, columns=["fmt", "n_fg", "a2", "v"])
    agg = df.groupby("fmt").agg(
        n_images=("n_fg", "size"), n_fg=("n_fg", "sum"),
        sum_hull_area2=("a2", "sum"), sum_hull_verts=("v", "sum"),
    ).reset_index().astype({c: "int64" for c in
        ("n_images", "n_fg", "sum_hull_area2", "sum_hull_verts")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "hull_sf0.01.parquet"))
    print("hull_sf0.01.parquet:")
    print(agg)


def gen_rectunion() -> None:
    """Expected q350 union area from the INDEPENDENT x-strip +
    y-interval-merge twin over the unsliced rectangle set."""
    import pandas as pd
    from texrex_ray.pipelines.queries.census_c import _order_rects

    o = pq.read_table(f"{SF_DIR}/orders.parquet",
                      columns=["o_orderkey"]).to_pandas()
    r = _order_rects(o)
    xs = np.unique(np.concatenate([r["x0"].to_numpy(), r["x1"].to_numpy()]))
    x0 = r["x0"].to_numpy(np.int64)
    x1 = r["x1"].to_numpy(np.int64)
    y0 = r["y0"].to_numpy(np.int64)
    y1 = r["y1"].to_numpy(np.int64)
    area = 0
    for a, b in zip(xs[:-1], xs[1:]):
        live = (x0 <= a) & (x1 >= b)
        if not live.any():
            continue
        ivs = sorted(zip(y0[live], y1[live]))
        covered = 0
        cur_lo, cur_hi = ivs[0]
        for lo, hi in ivs[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        area += int(covered) * int(b - a)
    out = pa.table({
        "n_rects": pa.array([len(r)], pa.int64()),
        "sum_rect_area": pa.array(
            [int(((x1 - x0) * (y1 - y0)).sum())], pa.int64()),
        "union_area": pa.array([area], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "rectunion_sf0.01.parquet"))
    print("rectunion_sf0.01.parquet:", len(r), "rects, union", area)


def gen_seam() -> None:
    """Expected q352 per-fmt seam costs from the INDEPENDENT Dijkstra
    twin over the same gradient-energy DAG."""
    import heapq
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import seam_energy

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

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        rows.append((fmt, dijkstra_seam(lum)))
    df = pd.DataFrame(rows, columns=["fmt", "c"])
    agg = df.groupby("fmt").agg(
        n_images=("c", "size"), sum_seam_cost=("c", "sum"),
        min_seam_cost=("c", "min"), max_seam_cost=("c", "max"),
    ).reset_index().astype({c: "int64" for c in
        ("n_images", "sum_seam_cost", "min_seam_cost", "max_seam_cost")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "seam_sf0.01.parquet"))
    print("seam_sf0.01.parquet:")
    print(agg)


def gen_resid() -> None:
    """Expected q356 per-fmt residual coding bounds from the
    INDEPENDENT two-queue Huffman twin."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import huffman_bits_twoqueue

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        b = decode_image(raw)[:, :, 0].astype(np.int64)
        resid = np.empty_like(b)
        resid[:, 0] = b[:, 0]
        resid[:, 1:] = (b[:, 1:] - b[:, :-1]) % 256
        hist = np.bincount(resid.ravel(), minlength=256)
        rows.append((fmt, 8 * b.size, huffman_bits_twoqueue(hist)))
    df = pd.DataFrame(rows, columns=["fmt", "raw", "huff"])
    agg = df.groupby("fmt").agg(
        n_images=("raw", "size"), sum_raw_bits=("raw", "sum"),
        sum_huff_bits=("huff", "sum"),
    ).reset_index()
    agg["ratio_ppm"] = agg["sum_huff_bits"] * 1_000_000 // agg["sum_raw_bits"]
    agg = agg.astype({c: "int64" for c in
        ("n_images", "sum_raw_bits", "sum_huff_bits", "ratio_ppm")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "resid_sf0.01.parquet"))
    print("resid_sf0.01.parquet:")
    print(agg)


def gen_median() -> None:
    """Expected q358 per-fmt median-filter stats from the INDEPENDENT
    stack-and-np.median twin."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        h, w = lum.shape
        if h < 3 or w < 3:
            rows.append((fmt, 0, 0, 0))
            continue
        stack = np.stack([lum[y:h - 2 + y, x:w - 2 + x]
                          for y in range(3) for x in range(3)])
        med = np.median(stack, axis=0).astype(np.int64)
        diff = np.abs(med - lum[1:-1, 1:-1])
        rows.append((fmt, diff.size, int(diff.sum()), int((diff > 0).sum())))
    df = pd.DataFrame(rows, columns=["fmt", "ni", "sa", "nc"])
    agg = df.groupby("fmt").agg(
        n_images=("ni", "size"), n_interior=("ni", "sum"),
        sum_abs_change=("sa", "sum"), n_changed=("nc", "sum"),
    ).reset_index().astype({c: "int64" for c in
        ("n_images", "n_interior", "sum_abs_change", "n_changed")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "median_sf0.01.parquet"))
    print("median_sf0.01.parquet:")
    print(agg)


def gen_mmr() -> None:
    """Expected q360 MMR selection from the INDEPENDENT serial numpy
    twin (full candidate matrix, argmax per round)."""
    import pandas as pd
    from texrex_ray.pipelines.queries.census_c import _MMR_K, _embed_int

    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).to_pandas()
    ids = t["vec_id"].to_numpy(np.int64)
    E = np.stack([_embed_int(e) for e in t["embedding"]])
    S = E.sum(axis=0)
    n = len(ids)
    rel = E @ S
    chosen: list[int] = []
    scores: list[int] = []
    mask = np.ones(n, bool)
    maxsim = np.full(n, -(1 << 62), np.int64)
    for _ in range(_MMR_K):
        pen = np.where(len(chosen) > 0, maxsim * n, 0)
        score = 7 * rel - 3 * pen
        score_m = np.where(mask, score, -(1 << 62))
        order = np.lexsort((ids, -score_m))
        i = order[0]
        chosen.append(int(ids[i]))
        scores.append(int(score_m[i]))
        mask[i] = False
        sim = E @ E[i]
        maxsim = np.maximum(maxsim, sim)
    out = pa.table({
        "rank": pa.array(range(1, _MMR_K + 1), pa.int64()),
        "vec_id": pa.array(chosen, pa.int64()),
        "score": pa.array(scores, pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "mmr_sf0.01.parquet"))
    print("mmr_sf0.01.parquet:", chosen)


def gen_down_tiles_hemd() -> None:
    """Expected q364/q365/q366 per-fmt stats from INDEPENDENT twins:
    reshape-pooled downsample, per-tile loop variance, and loop-
    accumulated EMD."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries.census_c import _HEMD_BINS
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    down_rows, tile_rows, hists = [], [], []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        h, w = lum.shape
        # --- q364 twin: reshape pooling
        he, we = h - h % 2, w - w % 2
        if he and we:
            a = lum[:he, :we]
            small = a.reshape(he // 2, 2, we // 2, 2).sum(axis=(1, 3)) // 4
            up = np.kron(small, np.ones((2, 2), np.int64))
            dd = a - up
            down_rows.append((fmt, a.size, int((dd * dd).sum())))
        else:
            down_rows.append((fmt, 0, 0))
        # --- q365 twin: explicit per-tile loop
        t = 8
        nf = nb = nt = 0
        for y in range(0, h - t + 1, t):
            for x in range(0, w - t + 1, t):
                blk = lum[y:y + t, x:x + t]
                n = t * t
                num = n * int((blk * blk).sum()) - int(blk.sum()) ** 2
                nt += 1
                if num <= 400 * n * n:
                    nf += 1
                if num > 8000 * n * n:
                    nb += 1
        tile_rows.append((fmt, nt, nf, nb))
        # --- q366: histogram for the EMD twin below
        hist = np.bincount((lum // 8).ravel(),
                           minlength=_HEMD_BINS).astype(np.int64)
        hists.append((fmt, hist))

    dfd = pd.DataFrame(down_rows, columns=["fmt", "npx", "sse"])
    aggd = dfd.groupby("fmt").agg(
        n_images=("npx", "size"), n_px_even=("npx", "sum"),
        sse_down=("sse", "sum")).reset_index().astype(
        {c: "int64" for c in ("n_images", "n_px_even", "sse_down")})
    pq.write_table(pa.Table.from_pandas(aggd, preserve_index=False),
                   os.path.join(OUT, "down_sf0.01.parquet"))
    print("down_sf0.01.parquet:")
    print(aggd)

    dft = pd.DataFrame(tile_rows, columns=["fmt", "nt", "nf", "nb"])
    aggt = dft.groupby("fmt").agg(
        n_images=("nt", "size"), n_tiles=("nt", "sum"),
        n_flat=("nf", "sum"), n_busy=("nb", "sum")).reset_index().astype(
        {c: "int64" for c in ("n_images", "n_tiles", "n_flat", "n_busy")})
    pq.write_table(pa.Table.from_pandas(aggt, preserve_index=False),
                   os.path.join(OUT, "tiles_sf0.01.parquet"))
    print("tiles_sf0.01.parquet:")
    print(aggt)

    protos: dict[str, np.ndarray] = {}
    for fmt, hist in hists:
        protos[fmt] = protos.get(fmt, np.zeros(_HEMD_BINS, np.int64)) + hist
    emd_rows = []
    for fmt, hist in hists:
        n_i, n_p = int(hist.sum()), int(protos[fmt].sum())
        ci = cp = 0
        num = 0
        for a, b in zip(hist.tolist(), protos[fmt].tolist()):
            ci += a
            cp += b
            num += abs(ci * n_p - cp * n_i)
        emd_rows.append((fmt, num // n_p))
    dfe = pd.DataFrame(emd_rows, columns=["fmt", "emd"])
    agge = dfe.groupby("fmt").agg(
        n_images=("emd", "size"), sum_emd_scaled=("emd", "sum"),
        max_emd_scaled=("emd", "max")).reset_index().astype(
        {c: "int64" for c in
         ("n_images", "sum_emd_scaled", "max_emd_scaled")})
    pq.write_table(pa.Table.from_pandas(agge, preserve_index=False),
                   os.path.join(OUT, "hemd_sf0.01.parquet"))
    print("hemd_sf0.01.parquet:")
    print(agge)


def gen_rake() -> None:
    """Expected q368 top keywords from the INDEPENDENT serial Counter
    twin (same RAKE spec, single pass over the corpus)."""
    import pandas as pd
    import re
    from collections import Counter
    from texrex_ray.pipelines.queries.census_c import _RAKE_STOP

    tok_re = re.compile(r"[a-z]+")
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["text"]).to_pandas()
    freq: Counter = Counter()
    deg: Counter = Counter()
    pcount: Counter = Counter()
    for t in docs["text"]:
        toks = tok_re.findall(str(t).lower())
        cur = []
        runs = []
        for w in toks:
            if w in _RAKE_STOP:
                if cur:
                    runs.append(tuple(cur))
                    cur = []
            else:
                cur.append(w)
        if cur:
            runs.append(tuple(cur))
        for ph in runs:
            pcount[" ".join(ph)] += 1
            for w in ph:
                freq[w] += 1
                deg[w] += len(ph)
    score = {w: deg[w] * 1_000_000 // freq[w] for w in freq}
    rows = [(p, n, sum(score[w] for w in p.split(" ")))
            for p, n in pcount.items()]
    rows.sort(key=lambda r: (-r[2], r[0]))
    df = pd.DataFrame(rows[:10],
                      columns=["phrase", "n_occurrences", "score_scaled"])
    df = df.astype({"n_occurrences": "int64", "score_scaled": "int64"})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(OUT, "rake_sf0.01.parquet"))
    print("rake_sf0.01.parquet:")
    print(df)


def gen_xmodal() -> None:
    """Expected q369 per-image (fmt, tok, seam) from the INDEPENDENT
    Dijkstra seam twin + regex token count."""
    import heapq
    import re
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import seam_energy

    tok_re = re.compile(r"[a-z]+")

    def dijkstra_seam(lum):
        e = seam_energy(lum)
        h, w = e.shape
        dist = {}
        heap = [(int(e[0, x]), 0, x) for x in range(w)]
        heapq.heapify(heap)
        best = None
        while heap:
            dd, y, x = heapq.heappop(heap)
            if (y, x) in dist:
                continue
            dist[(y, x)] = dd
            if y == h - 1:
                best = dd if best is None else min(best, dd)
                continue
            for dx in (-1, 0, 1):
                nx = x + dx
                if 0 <= nx < w and (y + 1, nx) not in dist:
                    heapq.heappush(heap, (dd + int(e[y + 1, nx]), y + 1, nx))
        return best

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["image_id", "bytes", "fmt", "caption"]
                         ).to_pandas()
    rows = []
    for iid, raw, fmt, cap in zip(imgs["image_id"], imgs["bytes"],
                                  imgs["fmt"], imgs["caption"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        rows.append((iid, fmt, len(tok_re.findall(str(cap).lower())),
                     dijkstra_seam(lum)))
    df = pd.DataFrame(rows, columns=["image_id", "fmt", "tok", "seam"])
    df = df.astype({"tok": "int64", "seam": "int64"})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(OUT, "xmodal_sf0.01.parquet"))
    print("xmodal_sf0.01.parquet:", len(df), "rows")


def gen_iblt_sq8_lblob() -> None:
    """Expected q370/q371/q372 rows from INDEPENDENT twins: serial
    IBLT peel, full-matrix quantization recall, BFS flood fill."""
    import pandas as pd
    from collections import deque
    from texrex_ray.pipelines.queries.census_c import (
        _SQ_K, _SQ_NQ, _embed_int, iblt_check, iblt_insert, iblt_peel, iblt_size,
    )

    # --- q370: serial IBLT over the exact sets
    import duckdb
    con = duckdb.connect()
    wk = con.execute(
        f"""
        WITH base AS (SELECT user_id,
               epoch_us(ts) // 86400000000
               - (SELECT MIN(epoch_us(ts) // 86400000000)
                  FROM read_parquet('{SF_DIR}/events.parquet')) AS day
               FROM read_parquet('{SF_DIR}/events.parquet'))
        SELECT DISTINCT user_id * 64 + day % 7 AS key, day // 7 AS week
        FROM base WHERE day // 7 IN (0, 1)
        """
    ).df()
    a = set(wk.loc[wk["week"] == 0, "key"].astype(int))
    b = set(wk.loc[wk["week"] == 1, "key"].astype(int))
    diff = a ^ b
    m = iblt_size(len(diff))
    cells = np.zeros((m, 3), np.int64)
    iblt_insert(cells, np.array(sorted(a), np.int64), +1)
    iblt_insert(cells, np.array(sorted(b), np.int64), -1)
    oa, ob, ok = iblt_peel(cells)
    assert ok and oa == (a - b) and ob == (b - a), "serial IBLT twin failed"
    out = pa.table({
        "n_cells": pa.array([m], pa.int64()),
        "n_recovered": pa.array([len(oa) + len(ob)], pa.int64()),
        "peel_ok": pa.array([1 if ok else 0], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "iblt_sf0.01.parquet"))
    print("iblt_sf0.01.parquet: m", m, "recovered", len(oa) + len(ob))

    # --- q371: full-matrix twin
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).to_pandas()
    ids = t["vec_id"].to_numpy(np.int64)
    E = np.stack([_embed_int(e) for e in t["embedding"]])
    lo = E.min(axis=0)
    span = np.maximum(E.max(axis=0) - lo, 1)
    Ez = (E - lo) * 255 // span
    order_q = np.argsort(ids)[:_SQ_NQ]
    hits = 0
    for qi in order_q:
        for_self = ids != ids[qi]
        sel = {}
        for kind, s in (("exact", E @ E[qi]), ("quant", Ez @ Ez[qi])):
            o = np.lexsort((ids, -s))
            o = o[for_self[o]][:_SQ_K]
            sel[kind] = set(ids[o])
        hits += len(sel["exact"] & sel["quant"])
    out = pa.table({
        "n_queries": pa.array([_SQ_NQ], pa.int64()),
        "k": pa.array([_SQ_K], pa.int64()),
        "total_hits": pa.array([hits], pa.int64()),
        "mean_recall_ppm": pa.array(
            [hits * 1_000_000 // (_SQ_NQ * _SQ_K)], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "sq8_sf0.01.parquet"))
    print("sq8_sf0.01.parquet: hits", hits)

    # --- q372: BFS flood-fill twin
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        fg = decode_image(raw).astype(np.int64).sum(axis=2) >= 383
        h, w = fg.shape
        seen = np.zeros_like(fg)
        comps = []
        for y in range(h):
            for x in range(w):
                if fg[y, x] and not seen[y, x]:
                    qd = deque([(y, x)])
                    seen[y, x] = True
                    pix = []
                    while qd:
                        cy, cx = qd.popleft()
                        pix.append((cy, cx))
                        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            ny, nx = cy + dy, cx + dx
                            if (0 <= ny < h and 0 <= nx < w
                                    and fg[ny, nx] and not seen[ny, nx]):
                                seen[ny, nx] = True
                                qd.append((ny, nx))
                    comps.append(pix)
        if not comps:
            rows.append((fmt, 0, 0))
            continue
        comps.sort(key=lambda c: (-len(c), min(y * w + x for y, x in c)))
        c = comps[0]
        ys = [y for y, _ in c]
        xs = [x for _, x in c]
        rows.append((fmt, len(c),
                     (max(ys) - min(ys) + 1) * (max(xs) - min(xs) + 1)))
    df = pd.DataFrame(rows, columns=["fmt", "sz", "bb"])
    agg = df.groupby("fmt").agg(
        n_images=("sz", "size"), sum_blob_size=("sz", "sum"),
        max_blob_size=("sz", "max"), sum_bbox_area=("bb", "sum"),
    ).reset_index().astype({c: "int64" for c in
        ("n_images", "sum_blob_size", "max_blob_size", "sum_bbox_area")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "lblob_sf0.01.parquet"))
    print("lblob_sf0.01.parquet:")
    print(agg)


def gen_palin() -> None:
    """Expected q373 per-source palindrome stats from the INDEPENDENT
    center-expansion twin."""
    import pandas as pd
    from texrex_ray.pipelines.queries.census_c import longest_palindrome_brute

    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    rows = []
    for src, sub in docs.groupby("source"):
        ls = [longest_palindrome_brute(str(t)[:512]) for t in sub["text"]]
        rows.append((src, len(ls), int(np.sum(ls)), int(np.max(ls))))
    df = pd.DataFrame(rows, columns=["source", "n_docs", "sum_pal_len",
                                     "max_pal_len"]).astype(
        {c: "int64" for c in ("n_docs", "sum_pal_len", "max_pal_len")})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(OUT, "palin_sf0.01.parquet"))
    print("palin_sf0.01.parquet:", len(df), "sources")


def gen_viterbi() -> None:
    """Expected q376 summary from the INDEPENDENT backward-recursion
    Viterbi twin."""
    import pandas as pd
    from texrex_ray.pipelines.queries.census_c import (
        _vit_matrices, viterbi_best_backward,
    )

    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["user_id", "ts", "event_id", "event_type"]
                       ).to_pandas()
    states = sorted(ev["event_type"].unique())
    T, E = _vit_matrices(states)
    pos = {s: i for i, s in enumerate(states)}
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    bests = []
    for _, sub in ev.groupby("user_id"):
        obs = sub["event_type"].map(pos).to_numpy(np.int64)
        bests.append(viterbi_best_backward(obs, T, E))
    bests = np.array(bests, np.int64)
    out = pa.table({
        "n_users": pa.array([len(bests)], pa.int64()),
        "sum_best": pa.array([int(bests.sum())], pa.int64()),
        "max_best": pa.array([int(bests.max())], pa.int64()),
        "min_best": pa.array([int(bests.min())], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "viterbi_sf0.01.parquet"))
    print("viterbi_sf0.01.parquet:", len(bests), "users")


def gen_bpcs() -> None:
    """Expected q381 per-(fmt, plane) transition sums from the
    INDEPENDENT row/column-loop twin."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        b = decode_image(raw)[:, :, 0].astype(np.int64)
        h, w = b.shape
        for k in range(8):
            p = ((b >> k) & 1).tolist()
            t = 0
            for y in range(h):
                for x in range(1, w):
                    t += p[y][x] != p[y][x - 1]
            for x in range(w):
                for y in range(1, h):
                    t += p[y][x] != p[y - 1][x]
            rows.append((fmt, k, t))
    df = pd.DataFrame(rows, columns=["fmt", "plane", "t"])
    agg = df.groupby(["fmt", "plane"]).agg(
        n_images=("t", "size"), sum_transitions=("t", "sum")
    ).reset_index().astype({c: "int64" for c in
        ("plane", "n_images", "sum_transitions")})
    agg = agg[["fmt", "n_images", "plane", "sum_transitions"]]
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "bpcs_sf0.01.parquet"))
    print("bpcs_sf0.01.parquet:", len(agg), "rows")


def gen_tiledup_densest_vopt() -> None:
    """Expected q382/q383/q384 rows from INDEPENDENT twins: serial
    tile-hash dict, repeated-scan peel, memoized-recursion DP."""
    import pandas as pd
    from collections import defaultdict
    from fractions import Fraction
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries.census_c import (
        _TILEH_MIN_SHARED, _VOPT_BASE, _VOPT_K, image_tile_hashes,
    )
    from texrex_ray.sources.images import decode_image

    # --- q382 twin
    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["image_id", "bytes"]).to_pandas()
    byhash: dict[int, set] = defaultdict(set)
    n_tiles = 0
    for iid, raw in zip(imgs["image_id"], imgs["bytes"]):
        th = image_tile_hashes(decode_image(raw))
        n_tiles += len(th)
        for h in th.tolist():
            byhash[h].add(iid)
    votes: dict[tuple, int] = defaultdict(int)
    for ids in byhash.values():
        ss = sorted(ids)
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                votes[(ss[i], ss[j])] += 1
    out = pa.table({
        "n_images": pa.array([len(imgs)], pa.int64()),
        "n_tiles": pa.array([n_tiles], pa.int64()),
        "n_candidate_pairs": pa.array([len(votes)], pa.int64()),
        "n_dup_pairs": pa.array(
            [sum(1 for v in votes.values() if v >= _TILEH_MIN_SHARED)],
            pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "tiledup_sf0.01.parquet"))
    print("tiledup_sf0.01.parquet:", len(votes), "candidates")

    # --- q383 twin: repeated-scan min-degree peel
    li = pq.read_table(f"{SF_DIR}/lineitem.parquet",
                       columns=["l_suppkey", "l_partkey"]).to_pandas()
    edges = {(int(s), int(p) + 1_000_000)
             for s, p in zip(li["l_suppkey"], li["l_partkey"])}
    adj: dict[int, set] = defaultdict(set)
    for s, p in edges:
        adj[s].add(p)
        adj[p].add(s)
    alive = dict(adj)
    deg = {v: len(ns) for v, ns in alive.items()}
    m = len(edges)
    best = (len(alive), m, m * 1_000_000 // len(alive))
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        for u in alive[v]:
            if u in alive and u != v:
                alive[u] = alive[u] - {v}
                deg[u] -= 1
        m -= deg[v]
        del alive[v], deg[v]
        if alive:
            dens = m * 1_000_000 // len(alive)
            if dens > best[2]:
                best = (len(alive), m, dens)
    out = pa.table({
        "n_nodes": pa.array([len(adj)], pa.int64()),
        "n_edges": pa.array([len(edges)], pa.int64()),
        "best_nodes": pa.array([best[0]], pa.int64()),
        "best_edges": pa.array([best[1]], pa.int64()),
        "best_density_ppm": pa.array([best[2]], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "densest_sf0.01.parquet"))
    print("densest_sf0.01.parquet:", best)

    # --- q384 twin: memoized recursion over the same base bins
    lip = pq.read_table(f"{SF_DIR}/lineitem.parquet",
                        columns=["l_extendedprice"]).to_pandas()
    v = np.round(lip["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    bins = (v * _VOPT_BASE // 10_300_000).clip(0, _VOPT_BASE - 1)
    base = np.bincount(bins, minlength=_VOPT_BASE).astype(np.int64)
    vals = np.arange(_VOPT_BASE, dtype=np.int64)
    cw = np.concatenate(([0], np.cumsum(base)))
    cs = np.concatenate(([0], np.cumsum(base * vals)))
    cs2 = np.concatenate(([0], np.cumsum(base * vals * vals)))

    def sse(i, j):
        n = int(cw[j] - cw[i])
        if n == 0:
            return Fraction(0)
        s = int(cs[j] - cs[i])
        return Fraction(int(cs2[j] - cs2[i])) - Fraction(s * s, n)

    import functools

    @functools.lru_cache(maxsize=None)
    def rec(kk, j):
        if kk == 0:
            return (Fraction(0), ()) if j == 0 else (Fraction(1 << 200), ())
        best_c, best_b = Fraction(1 << 200), ()
        for i in range(kk - 1, j):
            c, b = rec(kk - 1, i)
            c = c + sse(i, j)
            if c < best_c:
                best_c, best_b = c, b + (j,)
        return best_c, best_b

    import sys
    sys.setrecursionlimit(10000)
    tot, bounds = rec(_VOPT_K, _VOPT_BASE)
    out = pa.table({
        "n_rows": pa.array([int(base.sum())], pa.int64()),
        "n_base_bins": pa.array([_VOPT_BASE], pa.int64()),
        "k": pa.array([_VOPT_K], pa.int64()),
        "sse_num_scaled": pa.array([int(tot * 1000)], pa.int64()),
        "first_boundary": pa.array([bounds[0]], pa.int64()),
        "last_boundary": pa.array([bounds[-2] if len(bounds) > 1
                                   else bounds[0]], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "vopt_sf0.01.parquet"))
    print("vopt_sf0.01.parquet: sse", int(tot * 1000), "bounds", bounds)


def gen_pitch_shots() -> None:
    """Expected q386/q387 rows from INDEPENDENT twins: pitch over the
    REGENERATED raw PCM (quantization applied arithmetically, codec
    path untouched) and shot stats via a struct-unpack video parser."""
    import pandas as pd
    from texrex_ray.pipelines.queries.census_c import pitch_lag, shot_stats
    from texrex_ray.pipelines.queries.flagships import _av_n
    from texrex_ray.sources.av import (AUDIO_QUANT, _synth_pcm,
                                       fixture_path as av_fixture)

    n_aud, n_vid = _av_n(SF_DIR)
    # --- q386: regenerate each clip's PCM exactly as make_audio does
    rows = []
    for i in range(n_aud):
        rng = np.random.default_rng(42 * 1_000_003 + i)
        sr = int(rng.choice([8000, 16000]))
        dur = float(rng.uniform(0.2, 1.0))
        pcm = _synth_pcm(rng, int(sr * dur), sr)
        fmt = "ogg" if i % 3 == 0 else "wav"
        q = AUDIO_QUANT[fmt]
        if q != 1:
            pcm = (np.round(pcm.astype(np.int32) / q) * q).clip(
                -32768, 32767).astype(np.int16)
        rows.append((fmt, 100 * sr // pitch_lag(pcm, sr)))
    df = pd.DataFrame(rows, columns=["fmt", "chz"])
    agg = df.groupby("fmt").agg(
        n_clips=("chz", "size"), sum_pitch_chz=("chz", "sum"),
        min_pitch_chz=("chz", "min"), max_pitch_chz=("chz", "max"),
    ).reset_index().astype({c: "int64" for c in
        ("n_clips", "sum_pitch_chz", "min_pitch_chz", "max_pitch_chz")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "pitch_sf0.01.parquet"))
    print("pitch_sf0.01.parquet:")
    print(agg)

    # --- q387: independent struct-unpack parser over the stored blobs
    d = av_fixture(n=n_vid, seed=42)
    vids = pq.read_table(os.path.join(d, "video.parquet"),
                         columns=["bytes"]).to_pandas()
    tot = [0, 0, 0, 0]
    for raw in vids["bytes"]:
        import struct

        w, h, n, _fps = struct.unpack(">IIII", raw[4:20])
        frames = np.frombuffer(raw[20:], np.uint8).reshape(n, h, w, 3)
        a, b, c = shot_stats(frames)
        tot[0] += 1
        tot[1] += a
        tot[2] += b
        tot[3] += c
    out = pa.table({
        "n_videos": pa.array([tot[0]], pa.int64()),
        "n_frame_pairs": pa.array([tot[1]], pa.int64()),
        "n_boundaries": pa.array([tot[2]], pa.int64()),
        "sum_max_diff": pa.array([tot[3]], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "shots_sf0.01.parquet"))
    print("shots_sf0.01.parquet:", tot)


def gen_pca_dtw() -> None:
    """Expected q391/q392 outputs from the INDEPENDENT twins
    (pca_power_twin scalar loops; dtw_band_twin memoized recursion)."""
    import pandas as pd
    from texrex_ray.pipelines.queries.census_d import (
        _DTW_BAND, dtw_band_twin, pca_power_twin,
    )

    emb = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                        columns=["embedding"]).to_pandas()
    vecs = [
        [int(round(float(x) * 1000.0)) for x in v] for v in emb["embedding"]
    ]
    lam_ppm, loadings = pca_power_twin(vecs)
    d = len(loadings)
    pq.write_table(
        pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "loading_ppm": pa.array(np.array(loadings, dtype=np.int64)),
            "lam_ppm": pa.array(np.full(d, lam_ppm, dtype=np.int64)),
        }),
        os.path.join(OUT, "pca_sf0.01.parquet"),
    )
    print("pca_sf0.01.parquet:", d, "dims, lam_ppm", lam_ppm)

    ev = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["ts", "event_type"]).to_pandas()
    day = (ev["ts"].astype("int64") // 86_400_000_000).astype(np.int64)
    counts = (
        pd.DataFrame({"day": day, "event_type": ev["event_type"]})
        .groupby(["day", "event_type"]).size().reset_index(name="cnt")
    )
    days = np.arange(counts["day"].min(), counts["day"].max() + 1)
    types = sorted(counts["event_type"].unique())
    series = {}
    for t in types:
        sub = counts[counts["event_type"] == t].set_index("day")["cnt"]
        grid = sub.reindex(days, fill_value=0).to_numpy(np.int64)
        series[t] = [int(x) * 1000 // max(int(grid.sum()), 1) for x in grid]
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            rows.append((ta, tb,
                         dtw_band_twin(tuple(series[ta]), tuple(series[tb]),
                                       _DTW_BAND),
                         len(days)))
    df = pd.DataFrame(rows, columns=["type_a", "type_b", "dtw_cost",
                                     "n_days"]).astype(
        {"dtw_cost": "int64", "n_days": "int64"})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(OUT, "dtw_sf0.01.parquet"))
    print("dtw_sf0.01.parquet:", len(df), "pairs")


def gen_harris_vad_motion() -> None:
    """Expected q394/q395/q396 rows from INDEPENDENT scalar twins
    (per-pixel Harris loops; frame-walk VAD; per-block SAD loops)."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.av import (decode_audio, decode_video,
                                       fixture_path as av_fixture)
    from texrex_ray.sources.images import decode_image

    # ---- q394 Harris (per-pixel nested loops, independent of the
    # shifted-view stage implementation)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    THRESH = 1 << 38
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        gx = [[0] * w for _ in range(h)]
        gy = [[0] * w for _ in range(h)]
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                gx[y][x] = (lum[y - 1][x + 1] + 2 * lum[y][x + 1]
                            + lum[y + 1][x + 1] - lum[y - 1][x - 1]
                            - 2 * lum[y][x - 1] - lum[y + 1][x - 1])
                gy[y][x] = (lum[y + 1][x - 1] + 2 * lum[y + 1][x]
                            + lum[y + 1][x + 1] - lum[y - 1][x - 1]
                            - 2 * lum[y - 1][x] - lum[y - 1][x + 1])
        n_c = 0
        m_r = 0
        for y in range(2, h - 2):
            for x in range(2, w - 2):
                sxx = sxy = syy = 0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        a, b = gx[y + dy][x + dx], gy[y + dy][x + dx]
                        sxx += a * a
                        sxy += a * b
                        syy += b * b
                r = 20 * (sxx * syy - sxy * sxy) - (sxx + syy) ** 2
                if r > THRESH:
                    n_c += 1
                if r > m_r or (y == 2 and x == 2):
                    m_r = max(m_r, r) if not (y == 2 and x == 2) else r
        rows.append((fmt, n_c, m_r))
    df = pd.DataFrame(rows, columns=["fmt", "n_c", "m_r"])
    agg = df.groupby("fmt").agg(
        n_images=("n_c", "size"), sum_corner_px=("n_c", "sum"),
        max_resp=("m_r", "max")).reset_index().astype(
        {c: "int64" for c in ("n_images", "sum_corner_px", "max_resp")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "harris_sf0.01.parquet"))
    print("harris_sf0.01.parquet:", len(agg), "rows")

    # ---- q395 VAD (scalar frame walk)
    av = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(av, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    rows = []
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm, sr = decode_audio(raw)
        flen = max(1, sr * 20 // 1000)
        nf = len(pcm) // flen
        es = []
        for f in range(nf):
            s = 0
            for v in pcm[f * flen:(f + 1) * flen]:
                s += int(v) * int(v)
            es.append(s)
        tot = sum(es)
        act = [e * nf > tot for e in es]
        mr = r = 0
        for a in act:
            r = r + 1 if a else 0
            mr = max(mr, r)
        rows.append((fmt, nf, sum(act), mr))
    df = pd.DataFrame(rows, columns=["fmt", "nf", "na", "mr"])
    agg = df.groupby("fmt").agg(
        n_clips=("nf", "size"), sum_frames=("nf", "sum"),
        sum_active=("na", "sum"), max_run=("mr", "max")
    ).reset_index().astype({c: "int64" for c in
        ("n_clips", "sum_frames", "sum_active", "max_run")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "vad_sf0.01.parquet"))
    print("vad_sf0.01.parquet:", len(agg), "rows")

    # ---- q396 motion (scalar per-block argmin)
    av = av_fixture(n=100, seed=42)
    vid = pq.read_table(os.path.join(av, "video.parquet"),
                        columns=["bytes"]).to_pandas()
    M, BS = 2, 4
    tot = [0, 0, 0, 0, 0]
    for raw in vid["bytes"]:
        frames, _ = decode_video(raw)
        n, h, w, _ = frames.shape
        lum = frames.astype(np.int64).sum(axis=3).tolist()
        bh, bw = (h - 2 * M) // BS, (w - 2 * M) // BS
        if n < 2 or bh == 0 or bw == 0:
            tot[0] += 1
            continue
        tot[0] += 1
        for f in range(n - 1):
            tot[1] += 1
            for by in range(bh):
                for bx in range(bw):
                    tot[2] += 1
                    best = None
                    best_off = None
                    for dy in range(-M, M + 1):
                        for dx in range(-M, M + 1):
                            sad = 0
                            for yy in range(BS):
                                for xx in range(BS):
                                    py = M + by * BS + yy
                                    px_ = M + bx * BS + xx
                                    sad += abs(lum[f][py][px_]
                                               - lum[f + 1][py + dy][px_ + dx])
                            if best is None or sad < best:
                                best = sad
                                best_off = (dy, dx)
                    if best_off != (0, 0):
                        tot[3] += 1
                    tot[4] += best
    out = pa.table({
        "n_clips": pa.array([tot[0]], pa.int64()),
        "n_pairs": pa.array([tot[1]], pa.int64()),
        "n_blocks": pa.array([tot[2]], pa.int64()),
        "n_moving": pa.array([tot[3]], pa.int64()),
        "sum_sad": pa.array([tot[4]], pa.int64()),
    })
    pq.write_table(out, os.path.join(OUT, "motion_sf0.01.parquet"))
    print("motion_sf0.01.parquet:", tot)


def gen_ssim_template_lbp() -> None:
    """Expected q397/q398/q399 rows from INDEPENDENT scalar twins
    (per-tile Python-loop SSIM sums; per-position slice SSD; per-pixel
    LBP walk with a bit-iteration uniformity test)."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()

    # ---- q397 SSIM (per-tile scalar sums, Python-int rational finish)
    C1, C2, T = 7, 59, 8
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw).astype(np.int64)
        lum = (px.sum(axis=2) // 3).tolist()
        h2 = (len(lum) // 2) * 2
        w2 = (len(lum[0]) // 2) * 2
        rec = [[0] * w2 for _ in range(h2)]
        for y in range(0, h2, 2):
            for x in range(0, w2, 2):
                m = (lum[y][x] + lum[y][x + 1]
                     + lum[y + 1][x] + lum[y + 1][x + 1]) // 4
                rec[y][x] = rec[y][x + 1] = rec[y + 1][x] = rec[y + 1][x + 1] = m
        th, tw = h2 // T, w2 // T
        n = T * T
        nn = n * n
        total, mn = 0, None
        for by in range(th):
            for bx in range(tw):
                sx = sy = sxx = syy = sxy = 0
                for yy in range(by * T, by * T + T):
                    for xx in range(bx * T, bx * T + T):
                        a, b = lum[yy][xx], rec[yy][xx]
                        sx += a
                        sy += b
                        sxx += a * a
                        syy += b * b
                        sxy += a * b
                a1 = 2 * sx * sy + C1 * nn
                a2 = 2 * (n * sxy - sx * sy) + C2 * nn
                b1 = sx * sx + sy * sy + C1 * nn
                b2 = (n * sxx - sx * sx) + (n * syy - sy * sy) + C2 * nn
                v = (a1 * a2 * 1_000_000) // (b1 * b2)
                total += v
                mn = v if mn is None else min(mn, v)
        # Tileless images emit the neutral SSIM identity (1.0 ppm), not 0,
        # so they cannot drag the per-format Min down (mirrors the stage).
        rows.append((fmt, th * tw, total, 1_000_000 if mn is None else mn))
    df = pd.DataFrame(rows, columns=["fmt", "nt", "sm", "mn"])
    agg = df.groupby("fmt").agg(
        n_images=("nt", "size"), n_tiles=("nt", "sum"),
        sum_ssim_ppm=("sm", "sum"), min_ssim_ppm=("mn", "min"),
    ).reset_index().astype({c: "int64" for c in (
        "n_images", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "ssim_sf0.01.parquet"))
    print("ssim_sf0.01.parquet:", len(agg), "rows")

    # ---- q398 template match (per-grid-position slice SSD, an
    # independent decomposition of the stage's shifted-view accumulate)
    TT, S = 8, 4
    rng = np.random.RandomState(397)
    tmpl = rng.randint(0, 256, (TT, TT)).astype(np.int64)
    rows = []
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2) // 3
        h, w = lum.shape
        if h < TT or w < TT:
            rows.append((fmt, -1, -1, -1))
            continue
        best, by, bx = None, -1, -1
        for y in range(0, h - TT + 1, S):
            for x in range(0, w - TT + 1, S):
                ssd = int(((lum[y:y + TT, x:x + TT] - tmpl) ** 2).sum())
                if best is None or ssd < best:
                    best, by, bx = ssd, y, x
        rows.append((fmt, by, bx, best))
    df = pd.DataFrame(rows, columns=["fmt", "by", "bx", "ssd"])
    agg = df.groupby("fmt").agg(
        n_images=("ssd", "size"), min_ssd=("ssd", "min"),
        sum_ssd=("ssd", "sum"), sum_y=("by", "sum"), sum_x=("bx", "sum"),
    ).reset_index().astype({c: "int64" for c in (
        "n_images", "min_ssd", "sum_ssd", "sum_y", "sum_x")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "template_sf0.01.parquet"))
    print("template_sf0.01.parquet:", len(agg), "rows")

    # ---- q399 LBP (per-pixel scalar walk; uniformity by iterating the
    # 8 circular bit transitions — independent of the precomputed table)
    def is_uniform(code: int) -> bool:
        bits = [(code >> i) & 1 for i in range(8)]
        return sum(bits[i] != bits[(i + 1) % 8] for i in range(8)) <= 2

    offs = ((-1, -1), (-1, 0), (-1, 1), (0, 1),
            (1, 1), (1, 0), (1, -1), (0, -1))
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = (decode_image(raw).astype(np.int64).sum(axis=2) // 3).tolist()
        h, w = len(lum), len(lum[0])
        hist = [0] * 256
        for y in range(1, h - 1):
            row = lum[y]
            for x in range(1, w - 1):
                c = row[x]
                code = 0
                for i, (dy, dx) in enumerate(offs):
                    if lum[y + dy][x + dx] >= c:
                        code |= 1 << i
                hist[code] += 1
        st = per_fmt.setdefault(fmt, [0, 0, 0, [0] * 256])
        st[0] += 1
        st[1] += (h - 2) * (w - 2)
        st[2] += sum(hist[c] for c in range(256) if is_uniform(c))
        st[3] = [a + b for a, b in zip(st[3], hist)]
    rows = []
    for fmt in sorted(per_fmt):
        n_img, n_px, n_uni, hist = per_fmt[fmt]
        top_count = max(hist)
        top_code = hist.index(top_count)  # smallest code wins ties
        rows.append((fmt, n_img, n_px, n_uni, top_code, top_count))
    agg = pd.DataFrame(rows, columns=[
        "fmt", "n_images", "n_px", "n_uniform", "top_code", "top_count"
    ]).astype({c: "int64" for c in (
        "n_images", "n_px", "n_uniform", "top_code", "top_count")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "lbp_sf0.01.parquet"))
    print("lbp_sf0.01.parquet:", len(agg), "rows")



def gen_glcm_ols_wht() -> None:
    """Expected q400/q401/q402 rows from INDEPENDENT twins (per-pixel
    dict-walk GLCM; Cramer-determinant Fraction OLS over one-pass
    sums; explicit Sylvester-matrix Walsh transform)."""
    import pandas as pd
    from fractions import Fraction
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q400 GLCM (scalar dict walk over both offsets)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = (decode_image(raw).astype(np.int64).sum(axis=2) // 3).tolist()
        h, w = len(lum), len(lum[0])
        counts: dict[tuple[int, int], int] = {}
        for y in range(h):
            for x in range(w):
                a = lum[y][x] // 16
                if x + 1 < w:
                    b = lum[y][x + 1] // 16
                    counts[(a, b)] = counts.get((a, b), 0) + 1
                if y + 1 < h:
                    b = lum[y + 1][x] // 16
                    counts[(a, b)] = counts.get((a, b), 0) + 1
        n_pairs = sum(counts.values())
        contrast = sum(c * (a - b) ** 2 for (a, b), c in counts.items())
        energy = sum(c * c for c in counts.values())
        homog = sum((c * 1_000_000) // (1 + (a - b) ** 2)
                    for (a, b), c in counts.items())
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n_pairs
        st[2] += contrast
        st[3] += energy
        st[4] += homog
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_pairs", "sum_contrast",
                 "sum_energy", "sum_homog_ppm"],
    ).astype({c: "int64" for c in (
        "n_images", "n_pairs", "sum_contrast", "sum_energy",
        "sum_homog_ppm")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "glcm_sf0.01.parquet"))
    print("glcm_sf0.01.parquet:", len(agg), "rows")

    # ---- q401 OLS (one-pass numpy sums + Cramer-rule Fraction solve,
    # vs the query's distributed partials + Gaussian elimination)
    li = pq.read_table("/root/testdata/sf0.01/lineitem.parquet",
                       columns=["l_quantity", "l_extendedprice",
                                "l_discount", "l_tax"]).to_pandas()
    y = np.round(li["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    x1 = np.round(li["l_quantity"].to_numpy()).astype(np.int64)
    x2 = np.round(li["l_discount"].to_numpy() * 100).astype(np.int64)
    x3 = np.round(li["l_tax"].to_numpy() * 100).astype(np.int64)
    X = np.stack([np.ones_like(x1), x1, x2, x3], axis=1)
    A = [[int(v) for v in row] for row in (X.T @ X)]
    b = [int(v) for v in (X.T @ y)]

    def det4(M) -> Fraction:
        # cofactor expansion, exact Fractions
        def det(m):
            k = len(m)
            if k == 1:
                return Fraction(m[0][0])
            tot = Fraction(0)
            for j in range(k):
                sub = [row[:j] + row[j + 1:] for row in m[1:]]
                tot += (-1) ** j * Fraction(m[0][j]) * det(sub)
            return tot
        return det(M)

    dA = det4(A)
    assert dA != 0
    betas = []
    for i in range(4):
        Ai = [row[:i] + [b[r]] + row[i + 1:] for r, row in enumerate(A)]
        betas.append(det4(Ai) / dA)
    import math
    row = {"n": np.int64(len(y))}
    for i, bt in enumerate(betas):
        row[f"b{i}_e9"] = np.int64(math.floor(bt * 10**9))
    agg = pd.DataFrame([row])
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "ols_sf0.01.parquet"))
    print("ols_sf0.01.parquet:", agg.to_dict("records"))

    # ---- q402 Walsh spectrum (explicit Sylvester H_64 matmul per
    # frame, sequency order derived by COUNTING each row's sign
    # changes — independent of the stage's gray-code bit-reversal)
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture

    H = np.array([[1]], dtype=np.int64)
    while H.shape[0] < 64:
        H = np.block([[H, H], [H, -H]])
    sign_changes = [int((np.diff(row) != 0).sum()) for row in H]
    assert sorted(sign_changes) == list(range(64))
    order = np.argsort(sign_changes)
    H = H[order]
    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm, _sr = decode_audio(raw)
        nf = len(pcm) // 64
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        if nf == 0:
            continue
        frames = pcm[: nf * 64].astype(np.int64).reshape(nf, 64)
        w = frames @ H.T          # row f -> H @ frame (H symmetric)
        e = w * w
        st[1] += nf
        st[2] += int(e[:, :8].sum())
        st[3] += int(e[:, 32:].sum())
        st[4] += int(e.sum())
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_clips", "n_frames", "low_energy",
                 "high_energy", "total_energy"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_frames", "low_energy", "high_energy",
        "total_energy")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "wht_sf0.01.parquet"))
    print("wht_sf0.01.parquet:", len(agg), "rows")



def gen_hough_cube_soundex() -> None:
    """Expected q403/q405 rows from INDEPENDENT scalar twins (per-pixel
    Sobel + dict-vote Hough; per-letter state-machine Soundex).  q404's
    CUBE oracle is pure SQL (GROUP BY CUBE) — no fixture needed."""
    import pandas as pd
    import re
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q403 Hough 4-direction line census (scalar voting twin)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    EDGE_T = 1_000_000
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        votes = [dict(), dict(), dict(), dict()]
        n_edge = 0
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                gx = (lum[y - 1][x + 1] + 2 * lum[y][x + 1]
                      + lum[y + 1][x + 1] - lum[y - 1][x - 1]
                      - 2 * lum[y][x - 1] - lum[y + 1][x - 1])
                gy = (lum[y + 1][x - 1] + 2 * lum[y + 1][x]
                      + lum[y + 1][x + 1] - lum[y - 1][x - 1]
                      - 2 * lum[y - 1][x] - lum[y - 1][x + 1])
                if gx * gx + gy * gy > EDGE_T:
                    n_edge += 1
                    for di, rho in enumerate((x, y, x + y, x - y)):
                        votes[di][rho] = votes[di].get(rho, 0) + 1
        bd, br, bv = -1, -1, 0
        for di in range(4):
            for rho in sorted(votes[di]):
                if votes[di][rho] > bv:
                    bd, br, bv = di, rho, votes[di][rho]
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n_edge
        st[2] += bv
        st[3] = max(st[3], bv)
        if bd in (0, 1):
            st[4] += 1
        elif bd in (2, 3):
            st[5] += 1
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "sum_edge_px", "sum_best_votes",
                 "max_best_votes", "n_axis", "n_diag"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_edge_px", "sum_best_votes", "max_best_votes",
        "n_axis", "n_diag")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "hough_sf0.01.parquet"))
    print("hough_sf0.01.parquet:", len(agg), "rows")

    # ---- q405 Soundex key census (state-machine twin + dict counting)
    from texrex_ray.functions.phonetic import soundex_one

    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    tok_re = re.compile(r"[a-z]+")
    per_src: dict[str, set] = {}
    for src, text in zip(docs["source"], docs["text"]):
        st = per_src.setdefault(src, set())
        st.update(t for t in tok_re.findall((text or "").lower())
                  if len(t) >= 2)
    rows = []
    for src in sorted(per_src):
        toks = per_src[src]
        keys: dict[str, int] = {}
        for t in toks:
            k = soundex_one(t)
            keys[k] = keys.get(k, 0) + 1
        top_key = min(keys, key=lambda k: (-keys[k], k))
        rows.append((src, len(toks), len(keys), top_key, keys[top_key]))
    agg = pd.DataFrame(rows, columns=[
        "source", "n_tokens", "n_keys", "top_key", "top_count"
    ]).astype({c: "int64" for c in ("n_tokens", "n_keys", "top_count")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "soundex_sf0.01.parquet"))
    print("soundex_sf0.01.parquet:", len(agg), "rows")



def gen_cuckoo_mulaw_bayer() -> None:
    """Expected q406/q407/q408 rows from INDEPENDENT twins: a pure-
    Python list-of-lists cuckoo replica of the state/cuckoo.py spec
    (same blake2b/fp-offset/LCG constants, no numpy); a per-sample
    scalar segment-walk mu-law codec; a per-pixel scalar demosaic."""
    import hashlib
    import pandas as pd

    # ---- q406 scaling-cuckoo FPR audit
    CAP, CHUNK, PROBES = 4096, 1024, 50_000
    BS, MAXK = 4, 500

    def hpair(sx: str) -> tuple[int, int]:
        d = hashlib.blake2b(sx.encode("utf-8"), digest_size=16).digest()
        h = int.from_bytes(d[:8], "little")
        fp = int.from_bytes(d[8:10], "little")
        return h, fp or 1

    def fp_off(fp: int, mask: int) -> int:
        x = (fp * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 13
        return x & mask

    class Tab:
        def __init__(self, nb: int):
            self.nb = nb
            self.rows = [[0] * BS for _ in range(nb)]
            self.count = 0
            self.full = False
            self.victim = None
            self.kick = 0x9E3779B9

        def cap(self):
            return int(self.nb * BS * 0.95)

        def partners(self, h, fp):
            i1 = h & (self.nb - 1)
            return i1, i1 ^ fp_off(fp, self.nb - 1)

        def contains(self, h, fp):
            i1, i2 = self.partners(h, fp)
            if self.victim is not None and self.victim[1] == fp \
                    and self.victim[0] in (i1, i2):
                return True
            return fp in self.rows[i1] or fp in self.rows[i2]

        def tryput(self, i, fp):
            row = self.rows[i]
            for j in range(BS):
                if row[j] == 0:
                    row[j] = fp
                    self.count += 1
                    return True
            return False

        def insert(self, h, fp):
            if self.full or self.count >= self.cap() \
                    or self.victim is not None:
                self.full = True
                return False
            i1, i2 = self.partners(h, fp)
            if self.tryput(i1, fp) or self.tryput(i2, fp):
                return True
            i = i2
            for _ in range(MAXK):
                self.kick = (self.kick * 1103515245 + 12345) & 0x7FFFFFFF
                j = self.kick % BS
                fp, self.rows[i][j] = self.rows[i][j], fp
                i = i ^ fp_off(fp, self.nb - 1)
                if self.tryput(i, fp):
                    return True
            self.victim = (i, fp)
            self.count += 1
            self.full = True
            return True

    def buckets_for(capv: int) -> int:
        import math
        need = max(1, math.ceil(capv / (BS * 0.95)))
        return 1 << math.ceil(math.log2(need))

    tabs = [Tab(buckets_for(CAP))]

    def contains_any(h, fp):
        return any(t.contains(h, fp) for t in tabs)

    orders = pq.read_table("/root/testdata/sf0.01/orders.parquet",
                           columns=["o_orderkey"]).to_pandas()
    keys = [f"c:{k}" for k in sorted(int(x) for x in orders["o_orderkey"])]
    n_added = 0
    for i in range(0, len(keys), CHUNK):
        for k in keys[i:i + CHUNK]:
            h, fp = hpair(k)
            if contains_any(h, fp):
                continue
            if not tabs[-1].insert(h, fp):
                tabs.append(Tab(tabs[-1].nb * 2))
                assert tabs[-1].insert(h, fp)
            n_added += 1
    n_fp = sum(contains_any(*hpair(f"x:{i}")) for i in range(PROBES))
    t = pa.table({
        "n_keys": pa.array([len(keys)], pa.int64()),
        "n_added": pa.array([n_added], pa.int64()),
        "n_tables": pa.array([len(tabs)], pa.int64()),
        "total_slots": pa.array([sum(t2.nb * BS for t2 in tabs)], pa.int64()),
        "used_slots": pa.array([sum(t2.count for t2 in tabs)], pa.int64()),
        "n_probes": pa.array([PROBES], pa.int64()),
        "n_fp": pa.array([n_fp], pa.int64()),
        "fpr_ppm": pa.array([n_fp * 1_000_000 // PROBES], pa.int64()),
    })
    pq.write_table(t, os.path.join(OUT, "cuckoo_audit_sf0.01.parquet"))
    print("cuckoo_audit_sf0.01.parquet: n_fp", n_fp, "tables", len(tabs))

    # ---- q407 mu-law audit (scalar per-sample segment walk)
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture

    def enc1(x: int) -> int:
        sign = 1 if x < 0 else 0
        m = min(abs(x), 32635) + 0x84
        e = 0
        while m >= (0x100 << e) and e < 7:
            e += 1
        mant = (m >> (e + 3)) & 0x0F
        return ~((sign << 7) | (e << 4) | mant) & 0xFF

    def dec1(code: int) -> int:
        c = ~code & 0xFF
        sign, e, mant = (c >> 7) & 1, (c >> 4) & 7, c & 0x0F
        m = (((mant << 3) | 0x84) << e) - 0x84
        return -m if sign else m

    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm, _sr = decode_audio(raw)
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += len(pcm)
        for x in pcm.tolist():
            err = dec1(enc1(x)) - x
            st[2] += err * err
            st[3] = max(st[3], abs(err))
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_clips", "n_samples", "sse", "max_err"],
    ).astype({c: "int64" for c in ("n_clips", "n_samples", "sse",
                                   "max_err")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "mulaw_sf0.01.parquet"))
    print("mulaw_sf0.01.parquet:", len(agg), "rows")

    # ---- q408 Bayer demosaic audit (scalar per-pixel walk)
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw).astype(np.int64)
        h, w = px.shape[:2]
        mos = [[0] * w for _ in range(h)]
        for y in range(h):
            for x in range(w):
                ch = 0 if (y % 2 == 0 and x % 2 == 0) else \
                    2 if (y % 2 == 1 and x % 2 == 1) else 1
                mos[y][x] = int(px[y][x][ch])
        sse = [0, 0, 0]
        mx = 0
        npx = 0
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                npx += 1
                cc = mos[y][x]
                cross = (mos[y - 1][x] + mos[y + 1][x]
                         + mos[y][x - 1] + mos[y][x + 1])
                dia = (mos[y - 1][x - 1] + mos[y - 1][x + 1]
                       + mos[y + 1][x - 1] + mos[y + 1][x + 1])
                hp = mos[y][x - 1] + mos[y][x + 1]
                vp = mos[y - 1][x] + mos[y + 1][x]
                if y % 2 == 0 and x % 2 == 0:      # R site
                    rec = (cc, cross // 4, dia // 4)
                elif y % 2 == 1 and x % 2 == 1:    # B site
                    rec = (dia // 4, cross // 4, cc)
                elif y % 2 == 0:                   # G on R row
                    rec = (hp // 2, cc, vp // 2)
                else:                              # G on B row
                    rec = (vp // 2, cc, hp // 2)
                for ch in range(3):
                    e = rec[ch] - int(px[y][x][ch])
                    sse[ch] += e * e
                    mx = max(mx, abs(e))
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += npx
        st[2] += sse[0]
        st[3] += sse[1]
        st[4] += sse[2]
        st[5] = max(st[5], mx)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_images", "n_px", "sse_r", "sse_g", "sse_b",
                 "max_err"],
    ).astype({c: "int64" for c in (
        "n_images", "n_px", "sse_r", "sse_g", "sse_b", "max_err")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "bayer_sf0.01.parquet"))
    print("bayer_sf0.01.parquet:", len(agg), "rows")



def gen_haar_flicker() -> None:
    """Expected q409/q411 rows from INDEPENDENT twins (per-window
    direct slice sums — no integral image; per-pixel scalar frame
    sums).  q410's grouped-mode oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q409 Haar rectangle features (direct window sums)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    B = 8
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        h, w = lum.shape
        n2 = m2 = n3 = m3 = 0
        if h >= B and w >= 2 * B:
            for y in range(h - B + 1):
                for x in range(w - 2 * B + 1):
                    left = int(lum[y:y + B, x:x + B].sum())
                    right = int(lum[y:y + B, x + B:x + 2 * B].sum())
                    n2 += 1
                    m2 = max(m2, abs(right - left))
        if h >= 3 * B and w >= B:
            for y in range(h - 3 * B + 1):
                for x in range(w - B + 1):
                    top = int(lum[y:y + B, x:x + B].sum())
                    mid = int(lum[y + B:y + 2 * B, x:x + B].sum())
                    bot = int(lum[y + 2 * B:y + 3 * B, x:x + B].sum())
                    n3 += 1
                    m3 = max(m3, abs(top + bot - 2 * mid))
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n2
        st[2] = max(st[2], m2)
        st[3] += n3
        st[4] = max(st[4], m3)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_win2", "max_h2", "n_win3",
                 "max_v3"],
    ).astype({c: "int64" for c in (
        "n_images", "n_win2", "max_h2", "n_win3", "max_v3")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "haar_sf0.01.parquet"))
    print("haar_sf0.01.parquet:", len(agg), "rows")

    # ---- q411 exposure flicker (per-pixel scalar frame sums)
    from texrex_ray.sources.av import decode_video
    from texrex_ray.sources.av import fixture_path as av_fixture

    d = av_fixture(n=100, seed=42)
    vid = pq.read_table(os.path.join(d, "video.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    JUMP_T = 6
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(vid["bytes"], vid["fmt"]):
        frames, _fps = decode_video(raw)
        n, h, w, _ = frames.shape
        npx = h * w
        sums = []
        for f in range(n):
            tot = 0
            fl = frames[f].tolist()
            for row in fl:
                for pxv in row:
                    tot += pxv[0] + pxv[1] + pxv[2]
            sums.append(tot)
        n_jumps = 0
        run = best = 0
        for i in range(1, n):
            dlt = sums[i] - sums[i - 1]
            if abs(dlt) > JUMP_T * npx:
                n_jumps += 1
            run = run + 1 if dlt > 0 else 0
            best = max(best, run)
        rng_s = (max(sums) - min(sums)) if n else 0
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        st[2] += n_jumps
        st[3] = max(st[3], best)
        st[4] = max(st[4], rng_s)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_clips", "n_frames", "n_jumps",
                 "max_mono_run", "max_range_s"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_frames", "n_jumps", "max_mono_run",
        "max_range_s")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "flicker_sf0.01.parquet"))
    print("flicker_sf0.01.parquet:", len(agg), "rows")



def gen_skeleton_color_pareto() -> None:
    """Expected q412/q413/q414 rows from INDEPENDENT twins: a sparse
    SET-based Zhang-Suen (coordinate sets + per-pixel rule walk, vs
    the stage's whole-array masks); per-pixel scalar opponent sums;
    q414's Pareto oracle is pure SQL (window cumsum)."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()

    # ---- q412 Zhang-Suen skeleton census (sparse set twin)
    def otsu(lum) -> int:
        hist = [0] * 766
        for row in lum:
            for v in row:
                hist[v] += 1
        total = sum(hist)
        tot_sum = sum(t * h for t, h in enumerate(hist))
        best_t, best_num, best_den = 0, -1, 1
        w0 = s0 = 0
        for t in range(766):
            w0 += hist[t]
            if w0 == 0 or w0 == total:
                continue
            s0 += t * hist[t]
            num = (s0 * total - tot_sum * w0) ** 2
            den = w0 * (total - w0)
            if num * best_den > best_num * den:
                best_t, best_num, best_den = t, num, den
        return best_t

    OFFS = ((-1, 0), (-1, 1), (0, 1), (1, 1),
            (1, 0), (1, -1), (0, -1), (-1, -1))  # P2..P9

    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw).astype(np.int64)
        lum = px.sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        t = otsu(lum)
        fg = {(y, x) for y in range(h) for x in range(w) if lum[y][x] > t}
        if len(fg) * 2 > h * w:
            fg = {(y, x) for y in range(h) for x in range(w)} - fg
        n_fg = len(fg)
        it = 0
        while it < 256:
            changed = False
            for phase in (0, 1):
                kill = []
                for (y, x) in fg:
                    nb = [1 if (y + dy, x + dx) in fg else 0
                          for dy, dx in OFFS]
                    b = sum(nb)
                    if not (2 <= b <= 6):
                        continue
                    ring = nb + [nb[0]]
                    a = sum(1 for i in range(8)
                            if ring[i] == 0 and ring[i + 1] == 1)
                    if a != 1:
                        continue
                    if phase == 0:
                        ok = (nb[0] * nb[2] * nb[4] == 0
                              and nb[2] * nb[4] * nb[6] == 0)
                    else:
                        ok = (nb[0] * nb[2] * nb[6] == 0
                              and nb[0] * nb[4] * nb[6] == 0)
                    if ok:
                        kill.append((y, x))
                if kill:
                    fg -= set(kill)
                    changed = True
            it += 1
            if not changed:
                break
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += n_fg
        st[2] += len(fg)
        st[3] = max(st[3], it)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "sum_fg", "sum_skel", "max_iter"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_fg", "sum_skel", "max_iter")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "skeleton_sf0.01.parquet"))
    print("skeleton_sf0.01.parquet:", len(agg), "rows")

    # ---- q413 colorfulness opponent sums (scalar walk)
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw).astype(np.int64).tolist()
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0, 0, 0])
        st[0] += 1
        for row in px:
            for r, g, b in row:
                rg = r - g
                yb = (r + g) // 2 - b
                st[1] += 1
                st[2] += rg
                st[3] += rg * rg
                st[4] += yb
                st[5] += yb * yb
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_images", "n_px", "sum_rg", "sum_rg2",
                 "sum_yb", "sum_yb2"],
    ).astype({c: "int64" for c in (
        "n_images", "n_px", "sum_rg", "sum_rg2", "sum_yb", "sum_yb2")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "colorfulness_sf0.01.parquet"))
    print("colorfulness_sf0.01.parquet:", len(agg), "rows")



def gen_linebreak_rs_euler() -> None:
    """Expected q415/q416/q417 rows from INDEPENDENT twins: memoized
    TOP-DOWN line-break recursion (vs the query's bottom-up DP);
    scalar peasant-multiplication GF(256) synthetic division (no
    log/antilog tables); flood-fill components-minus-holes (vs the
    stage's quad-count formula)."""
    import pandas as pd
    from functools import lru_cache
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt", "caption"]).to_pandas()

    # ---- q415 optimal line breaking (top-down memoized twin)
    W = 32

    def best_badness(tokens: tuple, width: int) -> tuple[int, int]:
        @lru_cache(maxsize=None)
        def go(i: int) -> tuple[int, int]:
            n = len(tokens)
            if i == n:
                return 0, 0
            best = None
            for j in range(i + 1, n + 1):
                ln = sum(len(t) for t in tokens[i:j]) + (j - i - 1)
                if ln <= width:
                    bad = 0 if j == n else (width - ln) ** 2
                else:
                    bad = (ln - width) ** 2 * 1000
                rest, lines = go(j)
                cand = (bad + rest, lines + 1)
                if best is None or cand < best:
                    best = cand
                if ln > width:
                    break  # longer lines only get worse
            return best
        return go(0)

    per_fmt: dict[str, list] = {}
    for cap, fmt in zip(imgs["caption"], imgs["fmt"]):
        toks = tuple(cap.split())
        bad, lines = best_badness(toks, W)
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += bad
        st[2] += lines
        st[3] = max(st[3], bad)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_captions", "sum_badness", "sum_lines",
                 "max_badness"],
    ).astype({c: "int64" for c in (
        "n_captions", "sum_badness", "sum_lines", "max_badness")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "linebreak_sf0.01.parquet"))
    print("linebreak_sf0.01.parquet:", len(agg), "rows")

    # ---- q416 RS parity (scalar peasant-mult twin)
    def gfmul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & 0x100:
                a ^= 0x11D
        return r

    # generator poly by scalar convolution with roots alpha^i
    gen = [1]
    alpha = 1
    for _ in range(8):
        nxt = [0] * (len(gen) + 1)
        for k, c in enumerate(gen):
            nxt[k] ^= c
            nxt[k + 1] ^= gfmul(c, alpha)
        gen = nxt
        alpha = gfmul(alpha, 2)

    def parity(chunk: list) -> list:
        rem = [0] * 8
        for byte in chunk:
            lead = rem[0] ^ byte
            rem = rem[1:] + [0]
            if lead:
                for k in range(8):
                    if gen[k + 1]:
                        rem[k] ^= gfmul(lead, gen[k + 1])
        return rem

    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        buf = list(raw)
        n = len(buf) // 64
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        for i in range(n):
            par = parity(buf[i * 64:(i + 1) * 64])
            st[2] += sum(par)
            for v in par:
                st[3] ^= v
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_images", "n_chunks", "sum_parity",
                 "xor_parity"],
    ).astype({c: "int64" for c in (
        "n_images", "n_chunks", "sum_parity", "xor_parity")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "rs_parity_sf0.01.parquet"))
    print("rs_parity_sf0.01.parquet:", len(agg), "rows")

    # ---- q417 Euler topology (flood-fill twin)
    import sys
    sys.setrecursionlimit(10000)

    def otsu(lum) -> int:
        hist = [0] * 766
        for row in lum:
            for v in row:
                hist[v] += 1
        total = sum(hist)
        tot_sum = sum(t * h for t, h in enumerate(hist))
        best_t, best_num, best_den = 0, -1, 1
        w0 = s0 = 0
        for t in range(766):
            w0 += hist[t]
            if w0 == 0 or w0 == total:
                continue
            s0 += t * hist[t]
            num = (s0 * total - tot_sum * w0) ** 2
            den = w0 * (total - w0)
            if num * best_den > best_num * den:
                best_t, best_num, best_den = t, num, den
        return best_t

    def flood(cells: set, start, conn8: bool) -> set:
        offs = ((-1, 0), (1, 0), (0, -1), (0, 1))
        if conn8:
            offs = offs + ((-1, -1), (-1, 1), (1, -1), (1, 1))
        seen = {start}
        stack = [start]
        while stack:
            y, x = stack.pop()
            for dy, dx in offs:
                p = (y + dy, x + dx)
                if p in cells and p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    per_fmt3: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        h, w = lum.shape
        t = otsu(lum.tolist())
        fgm = lum > t
        if int(fgm.sum()) * 2 > h * w:
            fgm = ~fgm
        fg = {(y, x) for y in range(h) for x in range(w) if fgm[y, x]}
        bg = {(y, x) for y in range(-1, h + 1) for x in range(-1, w + 1)
              if (y, x) not in fg}
        # components: 8-connected fg
        comps = 0
        rest = set(fg)
        while rest:
            comps += 1
            rest -= flood(fg, next(iter(sorted(rest))), True)
        # holes: 4-connected bg components not touching the border ring
        outer = flood(bg, (-1, -1), False)
        holes = 0
        rest = bg - outer
        while rest:
            holes += 1
            rest -= flood(bg, next(iter(sorted(rest))), False)
        st = per_fmt3.setdefault(fmt, [0, 0, 0, None, None])
        st[0] += 1
        st[1] += len(fg)
        e = comps - holes
        st[2] += e
        st[3] = e if st[3] is None else min(st[3], e)
        st[4] = e if st[4] is None else max(st[4], e)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt3.items())],
        columns=["fmt", "n_images", "sum_fg", "sum_euler", "min_euler",
                 "max_euler"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_fg", "sum_euler", "min_euler", "max_euler")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "euler_sf0.01.parquet"))
    print("euler_sf0.01.parquet:", len(agg), "rows")



def gen_dither_silence() -> None:
    """Expected q419/q420 rows from INDEPENDENT twins: per-pixel scalar
    dither walk with the BIT-INTERLEAVE closed form of the Bayer matrix
    (vs the stage's recursive block construction); per-sample scalar
    silence walk.  q418's grouped top-k oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q419 ordered dither (closed-form Bayer + scalar walk)
    def bayer_closed(y: int, x: int) -> int:
        v = 0
        for i in range(3):
            xy = ((x ^ y) >> i) & 1
            yy = (y >> i) & 1
            v = (v << 2) | (xy << 1) | yy
        return v

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        for y, row in enumerate(lum):
            for x, v in enumerate(row):
                b = bayer_closed(y % 8, x % 8)
                on = 2 * v * 64 > (2 * b + 1) * 765
                flat = 2 * v > 765
                st[1] += 1
                st[2] += on
                st[3] += on != flat
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_px", "n_on", "n_flips"],
    ).astype({c: "int64" for c in (
        "n_images", "n_px", "n_on", "n_flips")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "dither_sf0.01.parquet"))
    print("dither_sf0.01.parquet:", len(agg), "rows")

    # ---- q420 silence trim (scalar sample walk)
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture

    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm = decode_audio(raw)[0].tolist()
        n = len(pcm)
        lead = 0
        while lead < n and abs(pcm[lead]) <= 64:
            lead += 1
        if lead == n:
            trail, active = 0, 0
        else:
            trail = 0
            while abs(pcm[n - 1 - trail]) <= 64:
                trail += 1
            active = n - lead - trail
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        st[2] += lead
        st[3] += trail
        st[4] += active
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_clips", "n_samples", "sum_lead", "sum_trail",
                 "sum_active"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_samples", "sum_lead", "sum_trail", "sum_active")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "silence_sf0.01.parquet"))
    print("silence_sf0.01.parquet:", len(agg), "rows")



def gen_adpcm_moments_bytes() -> None:
    """Expected q421/q422/q423 rows from INDEPENDENT scalar twins
    (per-sample IMA state machine; per-pixel moment sums with scalar
    Otsu; per-byte dict census)."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.sources.images import decode_image

    # IMA ADPCM step-size / index-adjust tables transcribed here
    # INDEPENDENTLY from the published IMA/DVI ADPCM spec (Intel/DVI
    # "Recommended Practices for Enhancing Digital Audio Compatibility",
    # rev 3.00, 1992 — the same public table every codec implements),
    # NOT imported from texrex_ray.stages.av, so a transcription error
    # on either side shows up as an oracle mismatch.
    _IMA_STEPS = [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
        34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130,
        143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408,
        449, 494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282,
        1411, 1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327,
        3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630,
        9493, 10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350,
        22385, 24623, 27086, 29794, 32767,
    ]
    _IMA_INDEX = [-1, -1, -1, -1, 2, 4, 6, 8]

    # ---- q421 IMA ADPCM audit (scalar per-sample state machine)
    def block_roundtrip(block: list) -> tuple[int, int]:
        pred, index = block[0], 0
        sse = mx = 0
        for j in range(1, len(block)):
            step = _IMA_STEPS[index]
            diff = block[j] - pred
            sign = diff < 0
            mag = -diff if sign else diff
            code = 0
            if mag >= step:
                code |= 4
                mag -= step
            if mag >= step >> 1:
                code |= 2
                mag -= step >> 1
            if mag >= step >> 2:
                code |= 1
            delta = step >> 3
            if code & 4:
                delta += step
            if code & 2:
                delta += step >> 1
            if code & 1:
                delta += step >> 2
            pred = pred - delta if sign else pred + delta
            pred = max(-32768, min(32767, pred))
            index = max(0, min(88, index + _IMA_INDEX[code]))
            e = pred - block[j]
            sse += e * e
            mx = max(mx, abs(e))
        return sse, mx

    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm = decode_audio(raw)[0].tolist()
        n = len(pcm) // 64
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        for i in range(n):
            sse, mx = block_roundtrip(pcm[i * 64:(i + 1) * 64])
            st[2] += sse
            st[3] = max(st[3], mx)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_clips", "n_blocks", "sse", "max_err"],
    ).astype({c: "int64" for c in ("n_clips", "n_blocks", "sse",
                                   "max_err")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "adpcm_sf0.01.parquet"))
    print("adpcm_sf0.01.parquet:", len(agg), "rows")

    # ---- q422 shape central moments (scalar Otsu + scalar sums)
    def otsu(lum) -> int:
        hist = [0] * 766
        for row in lum:
            for v in row:
                hist[v] += 1
        total = sum(hist)
        tot_sum = sum(t * h for t, h in enumerate(hist))
        best_t, best_num, best_den = 0, -1, 1
        w0 = s0 = 0
        for t in range(766):
            w0 += hist[t]
            if w0 == 0 or w0 == total:
                continue
            s0 += t * hist[t]
            num = (s0 * total - tot_sum * w0) ** 2
            den = w0 * (total - w0)
            if num * best_den > best_num * den:
                best_t, best_num, best_den = t, num, den
        return best_t

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        t = otsu(lum)
        pts = [(y, x) for y in range(h) for x in range(w)
               if lum[y][x] > t]
        if len(pts) * 2 > h * w:
            pts = [(y, x) for y in range(h) for x in range(w)
                   if lum[y][x] <= t]
        n = len(pts)
        if n:
            s10 = sum(x for _, x in pts)
            s01 = sum(y for y, _ in pts)
            s20 = sum(x * x for _, x in pts)
            s02 = sum(y * y for y, _ in pts)
            s11 = sum(x * y for y, x in pts)
            m20 = n * s20 - s10 * s10
            m02 = n * s02 - s01 * s01
            m11 = n * s11 - s10 * s01
        else:
            m20 = m02 = m11 = 0
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        st[2] += m20
        st[3] += m02
        st[4] += m11
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_images", "sum_fg", "sum_mu20s", "sum_mu02s",
                 "sum_mu11s"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_fg", "sum_mu20s", "sum_mu02s", "sum_mu11s")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "moments_sf0.01.parquet"))
    print("moments_sf0.01.parquet:", len(agg), "rows")

    # ---- q423 byte-uniformity chi-square (dict census twin)
    per_fmt3: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        counts: dict[int, int] = {}
        for b in raw:
            counts[b] = counts.get(b, 0) + 1
        st = per_fmt3.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += len(raw)
        st[2] += sum(c * c for c in counts.values())
        st[3] += len(counts)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt3.items())],
        columns=["fmt", "n_images", "n_bytes", "sum_o2", "sum_distinct"],
    ).astype({c: "int64" for c in (
        "n_images", "n_bytes", "sum_o2", "sum_distinct")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "byteuniform_sf0.01.parquet"))
    print("byteuniform_sf0.01.parquet:", len(agg), "rows")



def gen_ffd_rlsa() -> None:
    """Expected q424/q426 rows from INDEPENDENT twins: a scalar
    python-loop first-fit-decreasing packer (vs the query's vectorized
    argmax first-fit scan); a per-pixel scalar row-walk RLSA.  q425's
    window-distinct oracle is pure SQL (range self-join)."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q424 FFD bin packing over part sizes (heap-indexed twin:
    # maintain bins in a size-indexed structure but preserve FIRST-fit
    # order by scanning candidate bins in creation order)
    CAP = 100
    parts = pq.read_table("/root/testdata/sf0.01/part.parquet",
                          columns=["p_partkey", "p_size"]).to_pandas()
    items = sorted(zip(parts["p_size"], -parts["p_partkey"]),
                   key=lambda t: (-t[0], -t[1]))
    sizes = [int(sz) for sz, _ in items]
    bins: list = []   # remaining capacity per bin, creation order
    for sz in sizes:
        for i in range(len(bins)):
            if bins[i] >= sz:
                bins[i] -= sz
                break
        else:
            bins.append(CAP - sz)
    total = sum(sizes)
    lb = -(-total // CAP)
    agg = pd.DataFrame([{
        "n_items": len(sizes),
        "total_size": total,
        "lower_bound": lb,
        "n_bins": len(bins),
        "waste": len(bins) * CAP - total,
    }]).astype("int64")
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "ffd_sf0.01.parquet"))
    print("ffd_sf0.01.parquet:", agg.to_dict("records"))

    # ---- q426 RLSA (scalar row walk twin)
    def otsu(lum) -> int:
        hist = [0] * 766
        for row in lum:
            for v in row:
                hist[v] += 1
        total = sum(hist)
        tot_sum = sum(t * h for t, h in enumerate(hist))
        best_t, best_num, best_den = 0, -1, 1
        w0 = s0 = 0
        for t in range(766):
            w0 += hist[t]
            if w0 == 0 or w0 == total:
                continue
            s0 += t * hist[t]
            num = (s0 * total - tot_sum * w0) ** 2
            den = w0 * (total - w0)
            if num * best_den > best_num * den:
                best_t, best_num, best_den = t, num, den
        return best_t

    S = 4
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        t = otsu(lum)
        fgrows = [[lum[y][x] > t for x in range(w)] for y in range(h)]
        n_fg = sum(sum(r) for r in fgrows)
        if n_fg * 2 > h * w:
            fgrows = [[not v for v in r] for r in fgrows]
            n_fg = h * w - n_fg
        filled = 0
        rb = ra = 0
        for r in fgrows:
            # runs before + smear by explicit gap-run scan
            sm = list(r)
            x = 0
            prev_fg_end = None
            while x < w:
                if r[x]:
                    if prev_fg_end is not None:
                        gap = x - prev_fg_end
                        if 0 < gap <= S:
                            for g in range(prev_fg_end, x):
                                sm[g] = True
                            filled += gap
                    while x < w and r[x]:
                        x += 1
                    prev_fg_end = x
                else:
                    x += 1
            in_run = False
            for v in r:
                if v and not in_run:
                    rb += 1
                in_run = v
            in_run = False
            for v in sm:
                if v and not in_run:
                    ra += 1
                in_run = v
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n_fg
        st[2] += filled
        st[3] += rb
        st[4] += ra
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "sum_fg", "sum_filled",
                 "sum_runs_before", "sum_runs_after"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_fg", "sum_filled", "sum_runs_before",
        "sum_runs_after")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "rlsa_sf0.01.parquet"))
    print("rlsa_sf0.01.parquet:", len(agg), "rows")



def gen_canny_onsets() -> None:
    """Expected q427/q428 rows from INDEPENDENT twins: BFS hysteresis
    flood from strong seeds (vs the stage's iterative whole-array
    dilation); per-frame explicit Sylvester-matmul flux with a sorted-
    list median.  q429's all-quantifier oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q427 Canny hysteresis (scalar BFS twin)
    HI, LO = 4_000_000, 1_000_000
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        strong = set()
        weak = set()
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                gx = (lum[y - 1][x + 1] + 2 * lum[y][x + 1]
                      + lum[y + 1][x + 1] - lum[y - 1][x - 1]
                      - 2 * lum[y][x - 1] - lum[y + 1][x - 1])
                gy = (lum[y + 1][x - 1] + 2 * lum[y + 1][x]
                      + lum[y + 1][x + 1] - lum[y - 1][x - 1]
                      - 2 * lum[y - 1][x] - lum[y - 1][x + 1])
                m2 = gx * gx + gy * gy
                if m2 > HI:
                    strong.add((y, x))
                if m2 > LO:
                    weak.add((y, x))
        kept = set(strong)
        stack = list(strong)
        while stack:
            y, x = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    p = (y + dy, x + dx)
                    if p in weak and p not in kept:
                        kept.add(p)
                        stack.append(p)
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += len(strong)
        st[2] += len(weak)
        st[3] += len(kept)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "sum_strong", "sum_weak",
                 "sum_kept"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_strong", "sum_weak", "sum_kept")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "canny_sf0.01.parquet"))
    print("canny_sf0.01.parquet:", len(agg), "rows")

    # ---- q428 Walsh onset flux (explicit matmul + sorted median twin)
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture

    H = np.array([[1]], dtype=np.int64)
    while H.shape[0] < 64:
        H = np.block([[H, H], [H, -H]])
    H = H[np.argsort([int((np.diff(r) != 0).sum()) for r in H])]

    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm = decode_audio(raw)[0]
        nf = len(pcm) // 64
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += nf
        if nf < 2:
            continue
        fr = pcm[: nf * 64].astype(np.int64).reshape(nf, 64)
        e = (fr @ H.T) ** 2
        flux = [int(np.abs(e[i + 1] - e[i]).sum()) for i in range(nf - 1)]
        med = sorted(flux)[(len(flux) - 1) // 2]
        st[2] += sum(1 for f2 in flux if f2 > 2 * med)
        st[3] = max(st[3], max(flux))
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_clips", "n_frames", "n_onsets", "max_flux"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_frames", "n_onsets", "max_flux")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "onsets_sf0.01.parquet"))
    print("onsets_sf0.01.parquet:", len(agg), "rows")



def gen_perimeter_keyword() -> None:
    """Expected q430/q432 rows from INDEPENDENT twins: BFS largest
    component + scalar edge-count perimeter; scalar colorfulness +
    dict keyword attribution.  q431's Kendall-tau oracle is pure SQL."""
    import pandas as pd
    import re
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(
        os.path.join(d, "images.parquet"),
        columns=["bytes", "fmt", "caption"]).to_pandas()

    # ---- q430 crack perimeter (BFS + scalar edge count)
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2)
        h, w = lum.shape
        fg = {(y, x) for y in range(h) for x in range(w)
              if lum[y, x] >= 383}
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        if not fg:
            continue
        comps = []
        rest = set(fg)
        while rest:
            seed = min(rest)
            comp = {seed}
            stack = [seed]
            while stack:
                y, x = stack.pop()
                for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    p = (y + dy, x + dx)
                    if p in fg and p not in comp:
                        comp.add(p)
                        stack.append(p)
            comps.append(comp)
            rest -= comp
        # largest; ties -> component containing the smallest (y, x)
        best = max(comps, key=lambda c: (len(c), [-v for v in min(c)]))
        perim = 0
        for (y, x) in best:
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if (y + dy, x + dx) not in best:
                    perim += 1
        a = len(best)
        st[1] += a
        st[2] += perim
        st[3] = max(st[3], perim * perim * 1_000_000 // a)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "sum_area", "sum_perim",
                 "max_compact_ppm"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_area", "sum_perim", "max_compact_ppm")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "perimeter_sf0.01.parquet"))
    print("perimeter_sf0.01.parquet:", len(agg), "rows")

    # ---- q432 keyword chroma attribution (scalar twin)
    tok_re = re.compile(r"[a-z]+")
    stats: dict[str, list] = {}
    for raw, cap in zip(imgs["bytes"], imgs["caption"]):
        px = decode_image(raw).astype(np.int64)
        rg = px[:, :, 0] - px[:, :, 1]
        srg2 = int((rg * rg).sum())
        npx = int(rg.size)
        for tok in {t for t in tok_re.findall(cap.lower())
                    if len(t) >= 3}:
            st = stats.setdefault(tok, [0, 0, 0])
            st[0] += 1
            st[1] += srg2
            st[2] += npx
    rows = sorted(stats.items(), key=lambda kv: (-kv[1][0], kv[0]))[:20]
    agg = pd.DataFrame(
        [(k, *v) for k, v in rows],
        columns=["token", "n_images", "sum_rg2", "sum_px"],
    ).astype({c: "int64" for c in ("n_images", "sum_rg2", "sum_px")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "keyword_chroma_sf0.01.parquet"))
    print("keyword_chroma_sf0.01.parquet:", len(agg), "rows")



def gen_static_tssim() -> None:
    """Expected q433/q435 rows from INDEPENDENT scalar twins (per-tile
    scalar min/max walk; per-tile scalar-loop temporal SSIM).  q434's
    hapax oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.sources.av import decode_video
    from texrex_ray.sources.av import fixture_path as av_fixture

    d = av_fixture(n=100, seed=42)
    vid = pq.read_table(os.path.join(d, "video.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()

    # ---- q433 static tiles (scalar tile walk)
    T, JIT = 4, 6
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(vid["bytes"], vid["fmt"]):
        frames, _fps = decode_video(raw)
        n, h, w, _ = frames.shape
        th, tw = h // T, w // T
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        if n == 0 or th == 0 or tw == 0:
            continue
        lum = frames.astype(np.int64).sum(axis=3).tolist()
        st[1] += th * tw
        for by in range(th):
            for bx in range(tw):
                sums = []
                for f in range(n):
                    tot = 0
                    for y in range(by * T, by * T + T):
                        for x in range(bx * T, bx * T + T):
                            tot += lum[f][y][x]
                    sums.append(tot)
                rng = max(sums) - min(sums)
                if rng <= JIT * T * T:
                    st[2] += 1
                st[3] = max(st[3], rng)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_clips", "n_tiles", "n_static", "max_range"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_tiles", "n_static", "max_range")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "statictiles_sf0.01.parquet"))
    print("statictiles_sf0.01.parquet:", len(agg), "rows")

    # ---- q435 temporal SSIM (per-tile scalar loops)
    C1, C2, TT = 7, 59, 8
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(vid["bytes"], vid["fmt"]):
        frames, _fps = decode_video(raw)
        n, h, w, _ = frames.shape
        th, tw = h // TT, w // TT
        st = per_fmt2.setdefault(fmt, [0, 0, 0, None])
        st[0] += 1
        if n < 2 or th == 0 or tw == 0:
            continue
        lum = (frames.astype(np.int64).sum(axis=3) // 3).tolist()
        npix = TT * TT
        nn = npix * npix
        for p in range(n - 1):
            for by in range(th):
                for bx in range(tw):
                    a = b = aa = bb = ab = 0
                    for y in range(by * TT, by * TT + TT):
                        for x in range(bx * TT, bx * TT + TT):
                            u, v = lum[p][y][x], lum[p + 1][y][x]
                            a += u
                            b += v
                            aa += u * u
                            bb += v * v
                            ab += u * v
                    a1 = 2 * a * b + C1 * nn
                    a2 = 2 * (npix * ab - a * b) + C2 * nn
                    b1 = a * a + b * b + C1 * nn
                    b2 = (npix * aa - a * a) + (npix * bb - b * b) \
                        + C2 * nn
                    val = (a1 * a2 * 1_000_000) // (b1 * b2)
                    st[2] += val
                    st[3] = val if st[3] is None else min(st[3], val)
        st[1] += (n - 1) * th * tw
    rows = []
    for f in sorted(per_fmt2):
        n_clips, n_tiles, tot, mn = per_fmt2[f]
        rows.append((f, n_clips, n_tiles, tot,
                     1_000_000 if mn is None else mn))
    agg = pd.DataFrame(
        rows,
        columns=["fmt", "n_clips", "n_tiles", "sum_ssim_ppm",
                 "min_ssim_ppm"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_tiles", "sum_ssim_ppm", "min_ssim_ppm")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "tssim_sf0.01.parquet"))
    print("tssim_sf0.01.parquet:", len(agg), "rows")



def gen_compaction_gop() -> None:
    """Expected q436/q438 rows from INDEPENDENT scalar twins (explicit
    Sylvester matmul + per-frame sorted top-8; per-pixel scalar frame
    diff).  q437's relational-division oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.sources.av import (decode_audio, decode_video,
                                       fixture_path as av_fixture)

    # ---- q436 Walsh compaction (matmul + sorted top-8 twin)
    H = np.array([[1]], dtype=np.int64)
    while H.shape[0] < 64:
        H = np.block([[H, H], [H, -H]])

    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm = decode_audio(raw)[0]
        nf = len(pcm) // 64
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += nf
        if nf == 0:
            continue
        fr = pcm[: nf * 64].astype(np.int64).reshape(nf, 64)
        e = (fr @ H.T) ** 2
        for row in e.tolist():
            st[2] += sum(sorted(row)[-8:])
            st[3] += sum(row)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_clips", "n_frames", "top8_energy",
                 "total_energy"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_frames", "top8_energy", "total_energy")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "compaction_sf0.01.parquet"))
    print("compaction_sf0.01.parquet:", len(agg), "rows")

    # ---- q438 GOP delta bound (per-pixel scalar diff twin)
    d = av_fixture(n=100, seed=42)
    vid = pq.read_table(os.path.join(d, "video.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(vid["bytes"], vid["fmt"]):
        frames, _fps = decode_video(raw)
        n, h, w, _ = frames.shape
        fl = frames.tolist()
        delta = 0
        for f in range(1, n):
            for y in range(h):
                for x in range(w):
                    if fl[f][y][x] != fl[f - 1][y][x]:
                        delta += 1
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += h * w
        st[2] += delta
        st[3] += n
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_clips", "sum_key_px", "sum_delta_px",
                 "sum_frames"],
    ).astype({c: "int64" for c in (
        "n_clips", "sum_key_px", "sum_delta_px", "sum_frames")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "gop_sf0.01.parquet"))
    print("gop_sf0.01.parquet:", len(agg), "rows")



def gen_periodicity() -> None:
    """Expected q439 rows from the INDEPENDENT per-pixel scalar
    product-walk twin.  q440/q441 oracles are pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    LAGS = ((0, 4), (4, 0), (4, 4), (0, 8), (8, 0))
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        vals = [h * w, sum(v * v for row in lum for v in row)]
        for dy, dx in LAGS:
            tot = 0
            for y in range(h - dy):
                for x in range(w - dx):
                    tot += lum[y][x] * lum[y + dy][x + dx]
            vals.append(tot)
        st = per_fmt.setdefault(fmt, [0] + [0] * 7)
        st[0] += 1
        for i, v in enumerate(vals):
            st[1 + i] += v
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_px", "sum_x2", "ac_h4", "ac_v4",
                 "ac_d4", "ac_h8", "ac_v8"],
    ).astype({c: "int64" for c in (
        "n_images", "n_px", "sum_x2", "ac_h4", "ac_v4", "ac_d4",
        "ac_h8", "ac_v8")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "periodicity_sf0.01.parquet"))
    print("periodicity_sf0.01.parquet:", len(agg), "rows")



def gen_crest_bigrams() -> None:
    """Expected q443/q444 rows from INDEPENDENT scalar twins (per-
    sample scalar peak/energy walk; per-pair dict census).  q442's
    cross-modal tau oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture

    # ---- q443 crest factor (scalar walk)
    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm = decode_audio(raw)[0].tolist()
        n = len(pcm)
        peak = 0
        energy = 0
        for v in pcm:
            a = -v if v < 0 else v
            if a > peak:
                peak = a
            energy += v * v
        crest = energy * 1_000_000 // (n * peak * peak) if peak else 0
        st = per_fmt.setdefault(fmt, [0, 0, 0, None, None])
        st[0] += 1
        st[1] += n
        st[2] += energy
        st[3] = crest if st[3] is None else min(st[3], crest)
        st[4] = crest if st[4] is None else max(st[4], crest)
    rows = [(f, v[0], v[1], v[2],
             0 if v[3] is None else v[3], 0 if v[4] is None else v[4])
            for f, v in sorted(per_fmt.items())]
    agg = pd.DataFrame(rows, columns=[
        "fmt", "n_clips", "n_samples", "sum_energy", "min_crest_ppm",
        "max_crest_ppm"]).astype({c: "int64" for c in (
            "n_clips", "n_samples", "sum_energy", "min_crest_ppm",
            "max_crest_ppm")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "crest_sf0.01.parquet"))
    print("crest_sf0.01.parquet:", len(agg), "rows")

    # ---- q442 cross-modal tau (scalar pair-scan twin over metadata)
    dimg = img_fixture(n=300, seed=42)
    imt = pq.read_table(
        os.path.join(dimg, "images.parquet"),
        columns=["image_id", "w", "h", "caption"]).to_pandas()
    imt = imt.sort_values("image_id").reset_index(drop=True)
    px = (imt["w"].astype(int) * imt["h"].astype(int)).tolist()
    cl = [len(c) for c in imt["caption"]]
    n = len(px)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            sgn = (px[i] - px[j]) * (cl[i] - cl[j])
            conc += sgn > 0
            disc += sgn < 0
    pr = n * (n - 1) // 2
    num = (conc - disc) * 1_000_000
    tau = abs(num) // pr * (1 if num >= 0 else -1)
    agg = pd.DataFrame([{"n_images": n, "n_conc": conc, "n_disc": disc,
                         "tau_a_ppm": tau}]).astype("int64")
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "xtau_sf0.01.parquet"))
    print("xtau_sf0.01.parquet:", agg.to_dict("records"))

    # ---- q444 byte bigrams (dict census twin)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        counts: dict[int, int] = {}
        bs = list(raw)
        for i in range(len(bs) - 1):
            c = bs[i] * 256 + bs[i + 1]
            counts[c] = counts.get(c, 0) + 1
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += max(0, len(bs) - 1)
        st[2] += len(counts)
        if counts:
            best = min(counts, key=lambda k: (-counts[k], k))
            st[3] = max(st[3], counts[best])
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_images", "n_pairs", "sum_distinct_pairs",
                 "max_top_count"],
    ).astype({c: "int64" for c in (
        "n_images", "n_pairs", "sum_distinct_pairs", "max_top_count")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "bigrams_sf0.01.parquet"))
    print("bigrams_sf0.01.parquet:", len(agg), "rows")



def gen_lra_quadtree() -> None:
    """Expected q445/q447 rows from INDEPENDENT twins: sorted-list
    percentile taps; an explicit RECURSIVE quadtree splitter (vs the
    stage's min/max pyramids).  q446's heavy-change oracle is pure
    SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q445 loudness range (sorted-list twin)
    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm, sr = decode_audio(raw)
        flen = max(1, sr * 20 // 1000)
        nf = len(pcm) // flen
        st = per_fmt.setdefault(fmt, [0, 0, 0, None])
        st[0] += 1
        if nf == 0:
            continue
        x = pcm[: nf * flen].astype(np.int64).tolist()
        es = sorted(
            sum(v * v for v in x[i * flen:(i + 1) * flen])
            for i in range(nf)
        )
        p10 = es[(10 * (nf - 1)) // 100]
        p95 = es[(95 * (nf - 1)) // 100]
        st[1] += nf
        st[2] += p95 - p10
        st[3] = (p95 - p10) if st[3] is None else max(st[3], p95 - p10)
    rows = [(f, v[0], v[1], v[2], 0 if v[3] is None else v[3])
            for f, v in sorted(per_fmt.items())]
    agg = pd.DataFrame(rows, columns=[
        "fmt", "n_clips", "n_frames", "sum_lra", "max_lra"
    ]).astype({c: "int64" for c in (
        "n_clips", "n_frames", "sum_lra", "max_lra")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "lra_sf0.01.parquet"))
    print("lra_sf0.01.parquet:", len(agg), "rows")

    # ---- q447 quadtree (explicit recursion twin)
    T = 24

    def leaves(lum, y0, x0, h, w, depth):
        sub = [row[x0:x0 + w] for row in lum[y0:y0 + h]]
        mn = min(min(r) for r in sub)
        mx = max(max(r) for r in sub)
        if mx - mn <= T or h % 2 or w % 2 or h == 1 or w == 1:
            return 1, depth
        n = 0
        md = 0
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            c, d2 = leaves(lum, y0 + dy * (h // 2), x0 + dx * (w // 2),
                           h // 2, w // 2, depth + 1)
            n += c
            md = max(md, d2)
        return n, md

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        n, md = leaves(lum, 0, 0, len(lum), len(lum[0]), 0)
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        st[2] = max(st[2], md)
        st[3] += len(lum) * len(lum[0])
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_images", "sum_leaves", "max_depth", "n_px"],
    ).astype({c: "int64" for c in (
        "n_images", "sum_leaves", "max_depth", "n_px")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "quadtree_sf0.01.parquet"))
    print("quadtree_sf0.01.parquet:", len(agg), "rows")



def gen_exposure() -> None:
    """Expected q450 rows from the INDEPENDENT sorted-list percentile
    twin (no histogram).  q448/q449 oracles are pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = sorted(
            decode_image(raw).astype(np.int64).sum(axis=2).ravel().tolist()
        )
        n = len(lum)
        p1 = lum[(1 * (n - 1)) // 100]
        p99 = lum[(99 * (n - 1)) // 100]
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += n
        st[2] += sum(1 for v in lum if v <= 15)
        st[3] += sum(1 for v in lum if v >= 750)
        st[4] = max(st[4], p99 - p1)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_px", "sum_under", "sum_over",
                 "max_used_range"],
    ).astype({c: "int64" for c in (
        "n_images", "n_px", "sum_under", "sum_over", "max_used_range")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "exposure_sf0.01.parquet"))
    print("exposure_sf0.01.parquet:", len(agg), "rows")



def gen_saturation_zc() -> None:
    """Expected q452/q453 rows from INDEPENDENT scalar twins (per-pixel
    channel-spread walk; per-sample crossing walk with dict gap
    census).  q451's velocity oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.av import decode_audio
    from texrex_ray.sources.av import fixture_path as av_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q452 saturation census (scalar walk)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        px = decode_image(raw).astype(np.int64).tolist()
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0, 0])
        st[0] += 1
        for row in px:
            for r, g, b in row:
                sat = max(r, g, b) - min(r, g, b)
                st[1] += 1
                st[2] += sat
                st[3] += sat * sat
                st[4] += sat <= 8
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_px", "sum_sat", "sum_sat2",
                 "n_gray"],
    ).astype({c: "int64" for c in (
        "n_images", "n_px", "sum_sat", "sum_sat2", "n_gray")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "saturation_sf0.01.parquet"))
    print("saturation_sf0.01.parquet:", len(agg), "rows")

    # ---- q453 zero-crossing intervals (scalar walk + dict census)
    d = av_fixture(n=150, seed=42)
    aud = pq.read_table(os.path.join(d, "audio.parquet"),
                        columns=["bytes", "fmt"]).to_pandas()
    per_fmt2: dict[str, list] = {}
    for raw, fmt in zip(aud["bytes"], aud["fmt"]):
        pcm = decode_audio(raw)[0].tolist()
        cross = [i for i in range(1, len(pcm))
                 if (pcm[i] >= 0) != (pcm[i - 1] >= 0)]
        st = per_fmt2.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        if len(cross) < 2:
            continue
        gaps: dict[int, int] = {}
        mx = 0
        for a, b in zip(cross, cross[1:]):
            g = b - a
            gaps[g] = gaps.get(g, 0) + 1
            mx = max(mx, g)
        st[1] += len(cross) - 1
        modal = min(gaps, key=lambda k: (-gaps[k], k))
        st[2] += gaps[modal]
        st[3] = max(st[3], mx)
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt2.items())],
        columns=["fmt", "n_clips", "n_intervals", "sum_modal_n",
                 "max_gap"],
    ).astype({c: "int64" for c in (
        "n_clips", "n_intervals", "sum_modal_n", "max_gap")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "zc_intervals_sf0.01.parquet"))
    print("zc_intervals_sf0.01.parquet:", len(agg), "rows")



def gen_subset_tiledistinct() -> None:
    """Expected q454/q455 rows from INDEPENDENT twins: a python-SET
    subset-sum DP (vs the query's uint64 bitset words); a per-tile
    set() census.  q456's lead-time oracle is pure SQL."""
    import pandas as pd
    from texrex_ray.pipelines.caption import fixture_path as img_fixture
    from texrex_ray.sources.images import decode_image

    # ---- q454 subset sums (python set DP twin).  Restricted to the
    # LARGE parts (size >= 25) with bound 500 so reachability has
    # structure (the 1..24 gap) instead of being trivially dense.
    CAP = 500
    parts = pq.read_table("/root/testdata/sf0.01/part.parquet",
                          columns=["p_size"]).to_pandas()
    sizes = [int(v) for v in parts["p_size"] if v >= 25]
    reach = {0}
    for sz in sizes:
        reach |= {v + sz for v in reach if v + sz <= CAP}
        if len(reach) == CAP + 1:
            break
    n_reach = len(reach) - 1  # exclude the empty sum
    missing = sorted(set(range(1, CAP + 1)) - reach)
    agg = pd.DataFrame([{
        "n_items": len(sizes),
        "bound": CAP,
        "n_reachable": n_reach,
        "min_unreachable": missing[0] if missing else 0,
        "max_reachable": max(v for v in reach if v <= CAP),
    }]).astype("int64")
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "subset_sf0.01.parquet"))
    print("subset_sf0.01.parquet:", agg.to_dict("records"))

    # ---- q455 tile distinct (per-tile set twin)
    d = img_fixture(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes", "fmt"]).to_pandas()
    per_fmt: dict[str, list] = {}
    for raw, fmt in zip(imgs["bytes"], imgs["fmt"]):
        lum = decode_image(raw).astype(np.int64).sum(axis=2).tolist()
        h, w = len(lum), len(lum[0])
        th, tw = h // 8, w // 8
        st = per_fmt.setdefault(fmt, [0, 0, 0, 0])
        st[0] += 1
        st[1] += th * tw
        for by in range(th):
            for bx in range(tw):
                vals = {lum[y][x]
                        for y in range(by * 8, by * 8 + 8)
                        for x in range(bx * 8, bx * 8 + 8)}
                st[2] += len(vals)
                st[3] = max(st[3], len(vals))
    agg = pd.DataFrame(
        [(f, *v) for f, v in sorted(per_fmt.items())],
        columns=["fmt", "n_images", "n_tiles", "sum_distinct",
                 "max_distinct"],
    ).astype({c: "int64" for c in (
        "n_images", "n_tiles", "sum_distinct", "max_distinct")})
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   os.path.join(OUT, "tiledistinct_sf0.01.parquet"))
    print("tiledistinct_sf0.01.parquet:", len(agg), "rows")


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    gen_pca_dtw()
    gen_harris_vad_motion()
    gen_ssim_template_lbp()
    gen_glcm_ols_wht()
    gen_hough_cube_soundex()
    gen_cuckoo_mulaw_bayer()
    gen_haar_flicker()
    gen_skeleton_color_pareto()
    gen_linebreak_rs_euler()
    gen_dither_silence()
    gen_adpcm_moments_bytes()
    gen_ffd_rlsa()
    gen_canny_onsets()
    gen_perimeter_keyword()
    gen_static_tssim()
    gen_compaction_gop()
    gen_periodicity()
    gen_crest_bigrams()
    gen_lra_quadtree()
    gen_exposure()
    gen_saturation_zc()
    gen_subset_tiledistinct()
    gen_boiler_scores()
    gen_geo_blocks()
    gen_pipeline_pins()
    gen_simhash_signatures()
    gen_crawl_visits()
    gen_minhash_tender()
    gen_text_assessment()
    gen_lsh_ann()
    gen_priority_crawl()
    gen_av_features()
    gen_image_harvest()
    gen_harvest_pipeline()
    gen_hll_values()
    gen_images_phash()
    gen_rank_priority_crawl()
    gen_pagerank_edges()
    gen_incremental_neardup()
    gen_decontam()
    gen_cdc_stats()
    gen_core_numbers()
    gen_bpe_merges()
    gen_bpe_encode()
    gen_ppr_push()
    gen_seed_cover()
    gen_neighborhood_function()
    gen_audio_fingerprint()
    gen_pq_topk()
    gen_minhash_sigs()
    gen_stress_centrality()
    gen_harmonic_closeness()
    gen_image_patches()
    gen_eccentricity()
    gen_exposure_audit()
    gen_edge_stress()
    gen_label_prop()
    gen_html_pages()
    gen_channel_stats()
    gen_graph42_edges()
    gen_sharpness()
    gen_ktruss()
    gen_kmeans()
    gen_blob_counts()
    gen_isotonic()
    gen_palette()
    gen_huffman()
    gen_crc()
    gen_hilbert()
    gen_stable_match()
    gen_histeq()
    gen_kll()
    gen_otsu()
    gen_sobel()
    gen_morph()
    gen_cusum()
    gen_kcore()
    gen_bloom_audit()
    gen_lz76()
    gen_boxmeans()
    gen_period()
    gen_lrs()
    gen_intsched()
    gen_dsub()
    gen_haar()
    gen_density()
    gen_diameter()
    gen_lis()
    gen_belady()
    gen_dgim()
    gen_p2c()
    gen_wis()
    gen_merkle()
    gen_cdc()
    gen_maxflow()
    gen_matching()
    gen_selinger()
    gen_bridges()
    gen_bpe()
    gen_knnnoise()
    gen_cascade()
    gen_clustcoef()
    gen_kmeans1d()
    gen_drr()
    gen_mst()
    gen_sssp()
    gen_bwt()
    gen_dt()
    gen_hull()
    gen_rectunion()
    gen_seam()
    gen_resid()
    gen_median()
    gen_mmr()
    gen_down_tiles_hemd()
    gen_rake()
    gen_xmodal()
    gen_iblt_sq8_lblob()
    gen_palin()
    gen_viterbi()
    gen_bpcs()
    gen_tiledup_densest_vopt()
    gen_pitch_shots()
    gen_crossmodal()


if __name__ == "__main__":
    main()
