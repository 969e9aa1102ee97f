"""Command-line entry points mirroring the reference's programs.

The reference ships standalone binaries (ref: src/programs/ — texrex,
clarax, tender, tecl, hydra, rofl, cowsplit, cowinterleave); this module
maps each verb onto the corresponding Ray pipeline so a reference user
can run the same jobs::

    python -m texrex_ray texrex  IN.parquet OUT_DIR [--minhash-k 64]
    python -m texrex_ray clarax  OUT_DIR [--steps 2000] [--walkers 64]
    python -m texrex_ray harvest OUT_DIR [--steps 2000] [--walkers 64]
    python -m texrex_ray tender  IN.parquet OUT_DIR [--threshold 5]
    python -m texrex_ray tecl    IN.parquet BLACKLIST.parquet OUT_DIR
    python -m texrex_ray hydra   IN.parquet OUT_DIR [--column text]
    python -m texrex_ray rofl    IN.parquet OUT_DIR [--column text]
    python -m texrex_ray cowsplit IN.parquet OUT_DIR [--docs-per-file N]
    python -m texrex_ray cowinterleave IN.parquet ANN.parquet OUT_DIR
    python -m texrex_ray tenet   WEIGHTS.json [--n-docs 600]
    python -m texrex_ray bpe     IN.parquet MERGES.parquet [--merges 16]
    python -m texrex_ray cdc     IN.parquet STATS.parquet [--avg-bits 6]
    python -m texrex_ray graphrank {pagerank|trustrank|hits|kcore|bfs|nf} EDGES.parquet OUT.parquet
    python -m texrex_ray setjoin IN.parquet PAIRS.parquet [--gram 3 --num 1 --den 2]
    python -m texrex_ray pqann   EMB.parquet TOPK.parquet [--m 8 --ks 16 -k 10]

This is the ONE module (besides bench.py and the test fixture) that may
own a Ray session: it initialises Ray if and only if no session exists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    import ray.data
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_texrex(args) -> dict:
    """Cleaning chain over a parquet corpus with a `text` column
    (ref program: src/programs/texrex.pas).  ``--config FILE.ini``
    composes the chain from an INI file exactly like the reference's
    texrex.ini (stage list + per-stage sections, validated
    Achieves/Presupposes ordering — pipelines/configchain.py)."""
    ray = _ray()
    import ray.data

    ds = ray.data.read_parquet(args.input)
    if args.config:
        from texrex_ray.pipelines.configchain import chain_from_ini

        with open(args.config) as f:
            out = chain_from_ini(ds, f.read())
    else:
        from texrex_ray.pipelines.clean_documents import clean_documents

        out = clean_documents(ds, minhash_k=args.minhash_k)
    out.write_parquet(args.out)
    return {"rows": out.count(), "out": args.out}


def _resume(engine_cls, graph, out_dir: str, given: dict, **kw):
    """The engine resumed from ``out_dir``'s newest committed checkpoint
    (None when there is none).  Exits when an arg in ``given`` ({flag:
    (meta key, value)}), the graph or the config differs from the stored."""
    from texrex_ray.state import commit

    try:
        meta = commit.latest(out_dir).meta
    except FileNotFoundError:
        return None
    try:
        diffs = [f"{flag}: stored {meta[key]!r}, given {v!r}"
                 for flag, (key, v) in given.items() if meta[key] != v]
        if diffs:
            raise ValueError("; ".join(diffs))
        return engine_cls.resume(graph, out_dir, **kw)
    except ValueError as e:
        raise SystemExit(f"cannot resume {out_dir}: {e}") from None


def cmd_clarax(args) -> dict:
    """Random-walk crawl over the deterministic synthetic web graph
    (ref program: ClaraX, trwalkers.pas).  Re-submitting with the same
    OUT dir resumes from the last committed checkpoint instead of
    restarting; it exits with an error when the graph or crawl args differ
    from the checkpoint's."""
    _ray()
    from texrex_ray.crawl.engine import CrawlEngine
    from texrex_ray.crawl.policy import CrawlConfig
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(
        n_hosts=args.hosts, pages_per_host_base=8, n_seeds=args.walkers, seed=args.seed
    )
    cfg = CrawlConfig(url_seen_backend=args.url_seen)
    eng = _resume(
        CrawlEngine, g, args.out,
        {"--partitions": ("n_partitions", args.partitions),
         "--walkers": ("n_walkers", args.walkers), "--seed": ("seed", args.seed)},
        config=cfg,
    )
    resumed = eng is not None
    if not resumed:
        eng = CrawlEngine(
            g, n_walkers=args.walkers, n_partitions=args.partitions,
            seed=args.seed, out_dir=args.out, config=cfg,
        )
    stats = eng.run(max_steps=args.steps, checkpoint_every=args.checkpoint_every)
    eng.checkpoint()
    eng.shutdown()
    return {
        "steps": stats.steps, "outputs": stats.outputs,
        "urls_per_sec": round(stats.urls_per_sec, 1), "out": args.out,
        "resumed": resumed,
    }


def cmd_harvest(args) -> dict:
    """Crawl with the image+caption channel on and materialize the
    canonical image table (the graft's A+B bridge; no reference analogue —
    ClaraX fetches pages only).  OUT_DIR/crawl holds the corpus +
    checkpoints, OUT_DIR/images the Lance-gated image table."""
    ray = _ray()
    import os

    import ray.data

    from texrex_ray.crawl.engine import CrawlEngine
    from texrex_ray.crawl.policy import CrawlConfig
    from texrex_ray.pipelines.harvest import harvest_images, harvest_to_table
    from texrex_ray.sources.lance_io import read_images
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(
        n_hosts=args.hosts, pages_per_host_base=8, n_seeds=args.walkers,
        seed=args.seed, with_images=True,
    )
    crawl_dir = os.path.join(args.out, "crawl")
    eng = CrawlEngine(
        g, n_walkers=args.walkers, n_partitions=args.partitions, seed=args.seed,
        config=CrawlConfig(collect_images=True), out_dir=crawl_dir,
    )
    stats = eng.run(max_steps=args.steps, checkpoint_every=args.checkpoint_every)
    eng.shutdown()
    corpus = ray.data.read_parquet(os.path.join(crawl_dir, "corpus"))
    harvested = harvest_images(
        corpus, g.images,
        n_buckets=args.partitions, expected_rows=stats.outputs * 2,
    )
    fmt = harvest_to_table(harvested, os.path.join(args.out, "images"))
    n = read_images(os.path.join(args.out, "images")).count()
    return {
        "steps": stats.steps, "outputs": stats.outputs, "images": n,
        "format": fmt, "out": args.out,
    }


def cmd_priority(args) -> dict:
    """Degree-biased priority-frontier crawl (the north rule's scheduler
    mode; no reference analogue — ClaraX walks randomly).  Re-submitting
    with the same OUT dir resumes from the last committed checkpoint; it
    exits with an error when the graph or crawl args differ from the
    checkpoint's."""
    _ray()
    from texrex_ray.crawl.priority import PriorityCrawlEngine
    from texrex_ray.sources.webgraph import make_webgraph

    g = make_webgraph(
        n_hosts=args.hosts, pages_per_host_base=8, n_seeds=args.seeds, seed=args.seed
    )
    eng = _resume(
        PriorityCrawlEngine, g, args.out,
        {"--partitions": ("n_partitions", args.partitions),
         "--budget": ("budget", args.budget)},
    )
    resumed = eng is not None
    if not resumed:
        eng = PriorityCrawlEngine(
            g, n_partitions=args.partitions, budget_per_round=args.budget,
            out_dir=args.out,
        )
    stats = eng.run(max_fetches=args.fetches, checkpoint_every=args.checkpoint_every)
    eng.checkpoint()
    eng.shutdown()
    return {
        "fetched": eng.fetched, "rounds": eng.round,
        "urls_per_sec": round(stats.urls_per_sec, 1), "out": args.out,
        "resumed": resumed,
    }


def cmd_tender(args) -> dict:
    """Near-duplicate pair detection (ref program: tender)."""
    ray = _ray()
    import ray.data

    from texrex_ray.dedup.tender import tender

    ds = ray.data.read_parquet(args.input)
    pairs = tender(ds, pair_threshold=args.threshold, k=args.minhash_k)
    pairs.write_parquet(args.out)
    return {"pairs": pairs.count(), "out": args.out}


def cmd_tecl(args) -> dict:
    """Blacklist anti-join: drop documents whose id is blacklisted
    (ref program: tecl --black)."""
    ray = _ray()
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    bl = pq.read_table(args.blacklist)
    ids = bl[bl.column_names[0]]
    ref = ray.put(ids.combine_chunks())

    def drop(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.is_in(t[args.id_col], value_set=ray.get(ref)))
        )

    ds = ray.data.read_parquet(args.input).map_batches(drop, batch_format="pyarrow")
    ds.write_parquet(args.out)
    return {"rows": ds.count(), "out": args.out}


def _unigrams(ray, input_path: str, column: str) -> dict[str, int]:
    """Corpus unigram counts (the wordlist the reference programs take as
    a file argument), computed with one combiner-style pass."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Sum

    from texrex_ray.functions.tokenize import LATIN_TOKEN_RE

    def partial(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter[str] = Counter()
        for s in t[column].to_pylist():
            c.update(LATIN_TOKEN_RE.findall((s or "").lower()))
        return pa.table(
            {"token": list(c.keys()), "pn": pa.array(list(c.values()), pa.int64())}
        )

    agg = (
        ray.data.read_parquet(input_path, columns=[column])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("pn", alias_name="n"))
        .to_pandas()
    )
    return dict(zip(agg["token"], agg["n"]))


def _load_wordlist(path: str | None):
    if path is None:
        return None
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    cols = t.column_names
    if "n" in cols:
        return dict(zip(t["token"].to_pylist(), t["n"].to_pylist()))
    return {w: 1 for w in t[cols[0]].to_pylist()}


def cmd_hydra(args) -> dict:
    """Hyphenation repair (ref program: hydra; unigram list from
    --wordlist or derived from the input corpus)."""
    ray = _ray()
    import ray.data

    from texrex_ray.stages.postproc import UnigramLM, hydra_stage

    counts = _load_wordlist(args.wordlist) or _unigrams(ray, args.input, args.column)
    stage = hydra_stage(UnigramLM(counts), col=args.column, german=args.german)
    ds = ray.data.read_parquet(args.input).map_batches(stage, batch_format="pyarrow")
    ds.write_parquet(args.out)
    return {"rows": ds.count(), "out": args.out}


def cmd_rofl(args) -> dict:
    """Run-together-line repair (ref program: rofl)."""
    ray = _ray()
    import ray.data

    from texrex_ray.stages.postproc import rofl_stage

    counts = _load_wordlist(args.wordlist) or _unigrams(ray, args.input, args.column)
    stage = rofl_stage(set(counts), col=args.column, limit=args.limit)
    ds = ray.data.read_parquet(args.input).map_batches(stage, batch_format="pyarrow")
    ds.write_parquet(args.out)
    return {"rows": ds.count(), "out": args.out}


def cmd_cowsplit(args) -> dict:
    """Split a corpus into ~N-document files at document boundaries
    (ref program: cowsplit)."""
    ray = _ray()
    import ray.data

    from texrex_ray.sources.cowtools import cowsplit

    ds = ray.data.read_parquet(args.input)
    cowsplit(ds, args.out, args.docs_per_file)
    return {"rows": ds.count(), "out": args.out}


def cmd_cowinterleave(args) -> dict:
    """Attach annotation columns to corpus rows by doc id
    (ref program: cowinterleave)."""
    ray = _ray()
    import ray.data

    from texrex_ray.sources.cowtools import cowinterleave

    corpus = ray.data.read_parquet(args.input)
    ann = ray.data.read_parquet(args.annotations)
    out = cowinterleave(corpus, ann, on=args.id_col)
    out.write_parquet(args.out)
    return {"rows": out.count(), "out": args.out}


def cmd_tenet(args) -> dict:
    """Train the deboilerplater MLP on synthetic labeled divs and write
    the weight file the Deboilerplater stage loads (ref program: tenet)."""
    import json as _json

    from texrex_ray.stages.boilertrain import (
        evaluate,
        features_and_labels,
        make_labeled_docs,
        train_rprop,
    )

    train = make_labeled_docs(n_docs=args.n_docs, seed=7)
    x, y = features_and_labels(train)
    weights = train_rprop(x, y, hidden=18, epochs=args.epochs, seed=args.seed)
    holdout = make_labeled_docs(n_docs=max(100, args.n_docs // 3), seed=1234)
    p, r = evaluate(weights, holdout, threshold=0.55)
    with open(args.out, "w") as f:
        _json.dump({"precision_holdout": p, "recall_holdout": r, **weights}, f)
    return {
        "precision": round(p, 3), "recall": round(r, 3),
        "n_train_divs": len(x), "out": args.out,
    }


def cmd_fannport(args) -> dict:
    """Convert a FANN_FLO_2.1 text net (what the reference's
    trdeboilerplater.pas:697-699 loads via fann_create_from_file) to the
    MLP weights JSON used everywhere else (``Deboilerplater(weights_json)``,
    the tenet output format).  ``Deboilerplater(fann_file=...)`` does the
    same conversion in-process."""
    import json as _json

    from texrex_ray.stages.fann import fann_to_mlp_weights, load_fann

    net = load_fann(args.net_file)
    weights = fann_to_mlp_weights(net)
    with open(args.out, "w") as f:
        _json.dump(weights, f)
    return {
        "layers": net.layer_sizes,
        "inputs": net.n_inputs,
        "out": args.out,
    }


def cmd_release(args) -> dict:
    """Corpus-release pass: PII scrub + Gopher repetition gate +
    mostly-duplicated-document drop (segment keep-first), writing a
    release-ready parquet corpus plus a summary.  The per-doc work is
    one fused map_batches sweep; the segment dedup contributes the only
    corpus-wide exchange."""
    ray = _ray()
    import numpy as _np
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import ray.data

    from texrex_ray.dedup.segments import segment_dedup_counts
    from texrex_ray.functions.pii import redact_pii
    from texrex_ray.functions.repetition import repetition_stats

    import glob as _glob
    import sys as _sys

    if _glob.glob(os.path.join(args.out, "*.parquet")):
        print(f"release: output dir {args.out} already contains parquet; "
              "refusing to mix runs", file=_sys.stderr)
        raise SystemExit(2)

    ds = ray.data.read_parquet(args.input)
    rows_in = ds.count()

    seg = segment_dedup_counts(ds, n=args.segment_n).to_pandas()
    dup_ids = seg.loc[seg["n_kept"] * 2 < seg["n_segs"], "doc_id"]
    drop_ref = ray.put(_pa.array(sorted(int(i) for i in dup_ids), _pa.int64()))

    def stage(t: _pa.Table) -> _pa.Table:
        t = redact_pii(t, "text")
        r = repetition_stats(t)
        keep = r["keep"].to_numpy(zero_copy_only=False).astype(bool)
        not_dup = ~_pc.is_in(t["doc_id"], value_set=ray.get(drop_ref)).to_numpy(
            zero_copy_only=False
        )
        return t.filter(_pa.array(keep & not_dup))

    out = ds.map_batches(stage, batch_format="pyarrow")
    out.write_parquet(args.out)

    # redaction total over the WHOLE input (dropped docs were scrubbed too)
    def pii_partial(t: _pa.Table) -> _pa.Table:
        r = redact_pii(t, "text")
        n = sum(
            int(_pc.sum(r[c]).as_py() or 0) for c in ("n_email", "n_phone", "n_ip")
        )
        return _pa.table({"n": _pa.array([n], _pa.int64())})

    total_pii = int(
        ds.map_batches(pii_partial, batch_format="pyarrow").to_pandas()["n"].sum()
    )
    rows_out = ray.data.read_parquet(args.out, columns=["doc_id"]).count()
    return {
        "rows_in": int(rows_in),
        "rows_out": int(rows_out),
        "dropped_dup": int(len(dup_ids)),
        "pii_redactions": total_pii,
        "out": args.out,
    }




def cmd_bpe(args) -> dict:
    """BPE tokenizer-vocabulary training over a parquet corpus
    (round-4 op; functions/bpe.py)."""
    ray = _ray()
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from texrex_ray.functions.bpe import bpe_train

    ds = ray.data.read_parquet(args.input)
    merges = bpe_train(ds, text_col=args.column, n_merges=args.merges)
    pq.write_table(pa.Table.from_pandas(merges, preserve_index=False), args.out)
    return {"merges": len(merges), "out": args.out}


def cmd_bpeapply(args) -> dict:
    """Encode a parquet corpus with trained BPE merges (the serving
    path; functions/bpe.py::bpe_encode)."""
    ray = _ray()
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from texrex_ray.functions.bpe import bpe_encode

    m = pq.read_table(args.merges).to_pandas().sort_values("rank")
    merges = list(zip(m["left"], m["right"]))
    ds = ray.data.read_parquet(args.input)
    bpe_encode(ds, merges, id_col=args.id_col, text_col=args.column).write_parquet(
        args.out
    )
    import glob

    n = sum(
        pq.read_metadata(f).num_rows for f in glob.glob(f"{args.out}/*.parquet")
    )
    return {"rows": n, "merges": len(merges), "out": args.out}


def cmd_cdc(args) -> dict:
    """Content-defined chunking dedup report (round-4 op; dedup/cdc.py)."""
    ray = _ray()
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from texrex_ray.dedup.cdc import cdc_dedup_stats

    ds = ray.data.read_parquet(args.input)
    stats = cdc_dedup_stats(ds, avg_bits=args.avg_bits)
    pq.write_table(pa.Table.from_pandas(stats, preserve_index=False), args.out)
    return {
        "sources": len(stats),
        "dup_bytes": int(stats["dup_bytes"].sum()),
        "out": args.out,
    }


def cmd_setjoin(args) -> dict:
    """Prefix-filtering set-similarity self-join over a parquet corpus
    (round-4 op; dedup/setjoin.py — AllPairs/PPJoin)."""
    ray = _ray()
    import pyarrow as pa
    import pyarrow.parquet as pq
    import re as _re

    import ray.data

    from texrex_ray.dedup.setjoin import prefix_jaccard_pairs

    tok_re = _re.compile(r"[a-z]+")
    n = args.gram

    def to_sets(t: pa.Table) -> pa.Table:
        ids, toks = [], []
        for did, txt in zip(
            t[args.id_col].to_pylist(), t[args.column].to_pylist()
        ):
            ws = tok_re.findall((txt or "").lower())
            grams = sorted(
                {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}
            )
            ids.append(did)
            toks.append(grams)
        return pa.table({
            "rid": pa.array(ids, pa.int64()),
            "toks": pa.array(toks, pa.list_(pa.string())),
        })

    ds = ray.data.read_parquet(args.input).map_batches(
        to_sets, batch_format="pyarrow"
    )
    pairs = prefix_jaccard_pairs(
        ds, id_col="rid", set_col="toks",
        threshold=(args.num, args.den),
    )
    pq.write_table(pa.Table.from_pandas(pairs, preserve_index=False), args.out)
    return {"pairs": len(pairs), "out": args.out}


def cmd_pqann(args) -> dict:
    """Product-quantization ANN: train codebooks, encode, ADC top-k for
    the first Q vector ids (round-4 op; dedup/pq.py)."""
    ray = _ray()
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray.data

    from texrex_ray.dedup.pq import pq_adc_topk, pq_encode, pq_train

    ds = ray.data.read_parquet(args.input)
    books = pq_train(
        ds, m=args.m, ks=args.ks, id_col=args.id_col, vec_col=args.column
    )
    codes = pq_encode(ds, books, id_col=args.id_col, vec_col=args.column)
    qdf = ds.map_batches(
        lambda t: t.filter(pc.less(t[args.id_col], pa.scalar(args.queries))),
        batch_format="pyarrow",
    ).to_pandas()
    out = pq_adc_topk(
        codes, books,
        {int(i): np.asarray(v, np.float64)
         for i, v in zip(qdf[args.id_col], qdf[args.column])},
        k=args.k, id_col=args.id_col,
    )
    pq.write_table(pa.Table.from_pandas(out, preserve_index=False), args.out)
    return {"rows": len(out), "m": args.m, "ks": args.ks, "out": args.out}


def cmd_graphrank(args) -> dict:
    """Link-graph analytics over an (src, dst) edge parquet: pagerank /
    trustrank (seed-personalized) / hits / kcore / bfs-depth
    (ops/graph.py)."""
    ray = _ray()
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from texrex_ray.ops.graph import (
        bfs_depths,
        core_numbers,
        hits_int,
        neighborhood_function,
        opic_int,
        pagerank_int,
        ppr_push_int,
    )

    ds = ray.data.read_parquet(args.edges)
    seeds = set(args.seed or [])
    if args.algo == "pagerank":
        out = pagerank_int(ds, iters=args.iters, plan=args.plan)
    elif args.algo == "trustrank":
        if not seeds:
            raise SystemExit("trustrank requires --seed URL [--seed URL ...]")
        out = pagerank_int(ds, iters=args.iters, plan=args.plan, seeds=seeds)
    elif args.algo == "hits":
        out = hits_int(ds, iters=args.iters, plan=args.plan)
    elif args.algo == "kcore":
        out = core_numbers(ds)
    elif args.algo == "bfs":
        if not seeds:
            raise SystemExit("bfs requires --seed URL [--seed URL ...]")
        out = bfs_depths(ds, seeds, max_depth=args.iters)
    elif args.algo == "nf":
        out = neighborhood_function(ds, t_max=args.iters)
    elif args.algo == "opic":
        out = opic_int(ds, rounds=args.iters)
    elif args.algo == "ppr":
        if len(seeds) != 1:
            raise SystemExit("ppr requires exactly one --seed URL")
        out = ppr_push_int(ds, next(iter(seeds)), max_rounds=args.iters)
    else:  # pragma: no cover - argparse choices guard
        raise SystemExit(f"unknown algo {args.algo}")
    pq.write_table(pa.Table.from_pandas(out, preserve_index=False), args.out)
    return {"rows": len(out), "algo": args.algo, "out": args.out}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="texrex_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("texrex", help="cleaning chain over a parquet corpus")
    s.add_argument("input"); s.add_argument("out")
    s.add_argument("--minhash-k", type=int, default=64)
    s.add_argument("--config", default=None,
                   help="INI chain config (reference texrex.ini equivalent)")
    s.set_defaults(fn=cmd_texrex)

    s = sub.add_parser(
        "release",
        help="corpus-release pass: PII scrub + repetition gate + dup drop",
    )
    s.add_argument("input"); s.add_argument("out")
    s.add_argument("--segment-n", type=int, default=3)
    s.set_defaults(fn=cmd_release)

    s = sub.add_parser("clarax", help="random-walk crawl (synthetic web)")
    s.add_argument("out")
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--walkers", type=int, default=64)
    s.add_argument("--hosts", type=int, default=200)
    s.add_argument("--partitions", type=int, default=4)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--checkpoint-every", type=int, default=None)
    s.add_argument("--url-seen", choices=["bloom", "cuckoo"], default="bloom",
                   help="URL-seen filter backend (cuckoo supports deletion)")
    s.set_defaults(fn=cmd_clarax)

    s = sub.add_parser(
        "harvest", help="crawl + image/caption harvest into an image table"
    )
    s.add_argument("out")
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--walkers", type=int, default=64)
    s.add_argument("--hosts", type=int, default=200)
    s.add_argument("--partitions", type=int, default=4)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--checkpoint-every", type=int, default=None)
    s.set_defaults(fn=cmd_harvest)

    s = sub.add_parser(
        "priority", help="degree-biased priority-frontier crawl (resumable)"
    )
    s.add_argument("out")
    s.add_argument("--fetches", type=int, default=2000)
    s.add_argument("--seeds", type=int, default=16)
    s.add_argument("--hosts", type=int, default=200)
    s.add_argument("--partitions", type=int, default=4)
    s.add_argument("--budget", type=int, default=64)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--checkpoint-every", type=int, default=None)
    s.set_defaults(fn=cmd_priority)

    s = sub.add_parser("tender", help="near-duplicate pair detection")
    s.add_argument("input"); s.add_argument("out")
    s.add_argument("--threshold", type=int, default=5)
    s.add_argument("--minhash-k", type=int, default=100)
    s.set_defaults(fn=cmd_tender)

    s = sub.add_parser("tecl", help="blacklist anti-join")
    s.add_argument("input"); s.add_argument("blacklist"); s.add_argument("out")
    s.add_argument("--id-col", default="doc_id")
    s.set_defaults(fn=cmd_tecl)

    s = sub.add_parser("cowsplit", help="split corpus into ~N-doc files")
    s.add_argument("input"); s.add_argument("out")
    s.add_argument("--docs-per-file", type=int, default=10_000)
    s.set_defaults(fn=cmd_cowsplit)

    s = sub.add_parser("cowinterleave", help="attach annotations by doc id")
    s.add_argument("input"); s.add_argument("annotations"); s.add_argument("out")
    s.add_argument("--id-col", default="doc_id")
    s.set_defaults(fn=cmd_cowinterleave)

    s = sub.add_parser("tenet", help="train deboilerplater MLP weights")
    s.add_argument("out")
    s.add_argument("--n-docs", type=int, default=600)
    s.add_argument("--epochs", type=int, default=300)
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(fn=cmd_tenet)

    s = sub.add_parser(
        "fannport",
        help="convert a reference FANN_FLO_2.1 .net file (the nets texrex "
        "ships as data/boilerplate.*.net) to deboilerplater weights JSON",
    )
    s.add_argument("net_file")
    s.add_argument("out")
    s.set_defaults(fn=cmd_fannport)

    for name, fn in (("hydra", cmd_hydra), ("rofl", cmd_rofl)):
        s = sub.add_parser(name, help=f"{name} post-processing")
        s.add_argument("input"); s.add_argument("out")
        s.add_argument("--column", default="text")
        s.add_argument("--wordlist", default=None,
                       help="parquet wordlist (token[, n]); default: derive from input")
        if name == "hydra":
            s.add_argument("--german", action="store_true")
        else:
            s.add_argument("--limit", type=int, default=3)
        s.set_defaults(fn=fn)


    s = sub.add_parser("bpe", help="train BPE merges over a parquet corpus")
    s.add_argument("input"); s.add_argument("out")
    s.add_argument("--column", default="text")
    s.add_argument("--merges", type=int, default=16)
    s.set_defaults(fn=cmd_bpe)

    s = sub.add_parser("bpeapply", help="encode a corpus with trained BPE merges")
    s.add_argument("merges"); s.add_argument("input"); s.add_argument("out")
    s.add_argument("--column", default="text")
    s.add_argument("--id-col", dest="id_col", default="doc_id")
    s.set_defaults(fn=cmd_bpeapply)

    s = sub.add_parser("cdc", help="content-defined-chunking dedup report")
    s.add_argument("input"); s.add_argument("out")
    s.add_argument("--avg-bits", type=int, default=6)
    s.set_defaults(fn=cmd_cdc)

    s = sub.add_parser(
        "setjoin", help="prefix-filtering set-similarity self-join"
    )
    s.add_argument("input")
    s.add_argument("out")
    s.add_argument("--id-col", default="doc_id")
    s.add_argument("--column", default="text")
    s.add_argument("--gram", type=int, default=3)
    s.add_argument("--num", type=int, default=1)
    s.add_argument("--den", type=int, default=2)
    s.set_defaults(fn=cmd_setjoin)

    s = sub.add_parser("pqann", help="product-quantization ANN top-k")
    s.add_argument("input")
    s.add_argument("out")
    s.add_argument("--id-col", default="vec_id")
    s.add_argument("--column", default="embedding")
    s.add_argument("--m", type=int, default=8)
    s.add_argument("--ks", type=int, default=16)
    s.add_argument("--queries", type=int, default=8)
    s.add_argument("-k", type=int, default=10)
    s.set_defaults(fn=cmd_pqann)

    s = sub.add_parser(
        "graphrank",
        help="link-graph analytics over an (src,dst) edge parquet",
    )
    s.add_argument("algo", choices=["pagerank", "trustrank", "hits", "kcore", "bfs", "nf", "opic", "ppr"])
    s.add_argument("edges"); s.add_argument("out")
    s.add_argument("--iters", type=int, default=3)
    s.add_argument("--plan", default="broadcast", choices=["broadcast", "shuffle"])
    s.add_argument("--seed", action="append", default=None)
    s.set_defaults(fn=cmd_graphrank)

    args = p.parse_args(argv)
    print(json.dumps(args.fn(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
