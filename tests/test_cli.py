"""CLI verbs (python -m texrex_ray …) mirror the reference programs."""

import glob
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001/documents.parquet"


def _run(*args):
    out = subprocess.run(
        [sys.executable, "-m", "texrex_ray", *args],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_texrex_tender_tecl_roundtrip(tmp_path):
    clean = _run("texrex", SF, str(tmp_path / "clean"))
    assert clean["rows"] == 500

    pairs = _run("tender", SF, str(tmp_path / "pairs"))
    assert pairs["pairs"] >= 20

    t = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(str(tmp_path / "pairs" / "*.parquet"))]
    )
    bl = pa.table({"doc_id": t["id_small"].combine_chunks().unique()})
    blp = str(tmp_path / "blacklist.parquet")
    pq.write_table(bl, blp)

    surv = _run("tecl", SF, blp, str(tmp_path / "survivors"))
    assert surv["rows"] == 500 - bl.num_rows


def test_cli_clarax_writes_resumable_output(tmp_path):
    out = str(tmp_path / "crawl")
    r = _run("clarax", out, "--steps", "150", "--walkers", "4", "--hosts", "10")
    assert r["steps"] >= 150
    assert r["resumed"] is False
    assert os.path.isdir(os.path.join(out, "corpus"))
    assert glob.glob(os.path.join(out, "ckpt", "*", "COMMIT"))
    # re-submit with the same out dir: resumes and extends the budget
    r2 = _run("clarax", out, "--steps", "250", "--walkers", "4", "--hosts", "10")
    assert r2["resumed"] is True
    assert r2["steps"] >= 250


def test_cli_priority_crawl_resumable(tmp_path):
    out = str(tmp_path / "prio")
    r = _run(
        "priority", out, "--fetches", "60", "--hosts", "10",
        "--seeds", "4", "--budget", "8", "--checkpoint-every", "2",
    )
    assert r["resumed"] is False
    assert r["fetched"] >= 60
    assert glob.glob(os.path.join(out, "ckpt", "*", "COMMIT"))
    r2 = _run(
        "priority", out, "--fetches", "120", "--hosts", "10",
        "--seeds", "4", "--budget", "8", "--checkpoint-every", "2",
    )
    assert r2["resumed"] is True
    assert r2["fetched"] >= 120


def test_cli_resume_refuses_changed_args(tmp_path):
    """A re-submit whose graph or crawl args differ from the checkpoint's
    exits non-zero and names the differing input, instead of resuming a
    crawl whose state belongs to another graph."""
    def submit(verb, out, *args):
        return subprocess.run(
            [sys.executable, "-m", "texrex_ray", verb, out, *args],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )

    out = str(tmp_path / "crawl")
    assert submit("clarax", out, "--steps", "40", "--walkers", "2", "--hosts", "6").returncode == 0
    r = submit("clarax", out, "--steps", "60", "--walkers", "2", "--hosts", "7")
    assert r.returncode != 0 and "graph.hosts: stored" in r.stderr
    out = str(tmp_path / "prio")
    args = ("--fetches", "20", "--hosts", "6", "--seeds", "2", "--checkpoint-every", "2")
    assert submit("priority", out, *args, "--budget", "4").returncode == 0
    r = submit("priority", out, *args, "--budget", "8")
    assert r.returncode != 0 and "--budget: stored 4, given 8" in r.stderr


def test_cli_harvest_writes_image_table(tmp_path):
    out = str(tmp_path / "h")
    r = _run(
        "harvest", out, "--steps", "120", "--walkers", "4", "--hosts", "10"
    )
    assert r["steps"] >= 120
    assert r["images"] > 0
    assert os.path.isdir(os.path.join(out, "crawl", "corpus"))
    imgs = glob.glob(os.path.join(out, "images", "*.parquet")) + glob.glob(
        os.path.join(out, "images", "_versions")
    )
    assert imgs  # lance dataset dir or parquet fallback
    if r["format"] == "parquet":
        t = pa.concat_tables(
            [pq.read_table(f) for f in glob.glob(os.path.join(out, "images", "*.parquet"))]
        )
        assert t.num_rows == r["images"]
        assert set(
            ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]
        ) <= set(t.column_names)


def test_cli_cowtools_and_tenet(tmp_path):
    split = _run("cowsplit", SF, str(tmp_path / "split"), "--docs-per-file", "100")
    assert split["rows"] == 500
    assert len(glob.glob(str(tmp_path / "split" / "*.parquet"))) >= 4

    ann = pa.table(
        {"doc_id": pa.array(range(500), pa.int64()),
         "tag": pa.array([f"t{i%3}" for i in range(500)])}
    )
    annp = str(tmp_path / "ann.parquet")
    pq.write_table(ann, annp)
    inter = _run("cowinterleave", SF, annp, str(tmp_path / "inter"))
    assert inter["rows"] == 500
    t = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(str(tmp_path / "inter" / "*.parquet"))]
    )
    assert "ann_tag" in t.column_names

    w = _run("tenet", str(tmp_path / "w.json"), "--n-docs", "200", "--epochs", "120")
    assert w["precision"] > 0.8 and w["recall"] > 0.8


def test_cli_release_scrubs_and_filters(tmp_path):
    r = _run("release", SF, str(tmp_path / "rel"))
    assert r["rows_in"] == 500
    assert 0 < r["rows_out"] <= 500
    assert r["pii_redactions"] == 0  # synthetic docs carry no PII
    files = glob.glob(str(tmp_path / "rel" / "*.parquet"))
    assert files
    t = pa.concat_tables([pq.read_table(f) for f in files])
    assert {"n_email", "n_phone", "n_ip"} <= set(t.column_names)
    assert t.num_rows == r["rows_out"]


def test_cli_bpe_cdc_graphrank(tmp_path):
    merges = _run(
        "bpe", SF, str(tmp_path / "merges.parquet"), "--merges", "6"
    )
    assert merges["merges"] == 6

    cdc = _run("cdc", SF, str(tmp_path / "cdc.parquet"))
    assert cdc["sources"] == 20 and cdc["dup_bytes"] > 0

    edges = "/root/repo/tests/fixtures/oracle/pagerank_edges.parquet"
    pr = _run(
        "graphrank", "kcore", edges, str(tmp_path / "core.parquet")
    )
    assert pr["rows"] > 2000
    tr = _run(
        "graphrank", "trustrank", edges, str(tmp_path / "tr.parquet"),
        "--seed", "http://host0.tld0/p0", "--iters", "2",
    )
    assert tr["rows"] > 2000


def test_cli_setjoin_pqann(tmp_path):
    sj = _run("setjoin", SF, str(tmp_path / "pairs.parquet"))
    assert sj["pairs"] > 0
    t = pq.read_table(tmp_path / "pairs.parquet")
    assert t.column_names == ["id_a", "id_b", "n_inter", "n_union"]
    # threshold holds on every emitted pair
    import numpy as np

    ni = t["n_inter"].to_numpy()
    nu = t["n_union"].to_numpy()
    assert (2 * ni >= nu).all()

    pq_res = _run(
        "pqann", "/root/testdata/sf0.001/embeddings.parquet",
        str(tmp_path / "topk.parquet"), "--queries", "4", "-k", "5",
    )
    assert pq_res["rows"] == 4 * 5
    t = pq.read_table(tmp_path / "topk.parquet")
    assert t.column_names == ["query_id", "neighbor_id", "adc_dist", "rank"]
