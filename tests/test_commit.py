"""The checkpoint commit protocol (state/commit.py) for both crawl engines.

The crash-point matrix stops a checkpoint at each step of the protocol by
making one of the commit module's file calls raise, drops the engine the
way a dead Ray driver process would, resumes, and requires the finished
crawl to be the uninterrupted one: the same visit order and every corpus
URL written exactly once."""

import ast
import glob
import hashlib
import json
import os
import re
import shutil

import pyarrow.parquet as pq
import pytest

from texrex_ray.crawl.engine import CrawlEngine
from texrex_ray.crawl.policy import CrawlConfig
from texrex_ray.crawl.priority import PriorityCrawlEngine
from texrex_ray.sources.webgraph import make_webgraph
from texrex_ray.state import commit

EVERY = 4  # checkpoint cadence; the crash hits the round-12 checkpoint


@pytest.fixture(scope="module")
def graph():
    return make_webgraph(n_hosts=6, pages_per_host_base=6, n_seeds=4, seed=3)


class _Walk:
    def make(self, graph, out_dir):
        return CrawlEngine(graph, n_walkers=2, n_partitions=1, n_walker_shards=1,
                           seed=42, config=CrawlConfig(), out_dir=out_dir)

    def run(self, eng, **kw):
        return eng.run(max_steps=70, checkpoint_every=EVERY, keep_checkpoints=2, **kw)

    resume = staticmethod(CrawlEngine.resume)


class _Priority:
    def make(self, graph, out_dir):
        return PriorityCrawlEngine(graph, n_partitions=1, budget_per_round=3,
                                   out_dir=out_dir)

    def run(self, eng, **kw):
        return eng.run(max_fetches=60, checkpoint_every=EVERY, keep_checkpoints=2, **kw)

    resume = staticmethod(PriorityCrawlEngine.resume)


ENGINES = {"walk": _Walk(), "priority": _Priority()}


def _corpus_urls(out_dir):
    urls = []
    for p, _, fs in sorted(os.walk(os.path.join(out_dir, "corpus"))):
        for f in sorted(fs):
            urls += pq.read_table(os.path.join(p, f), columns=["url"])["url"].to_pylist()
    return urls


def _tree_digest(d):
    h = hashlib.sha256()
    for p, _, fs in sorted(os.walk(d)):
        for f in sorted(fs):
            h.update(f.encode())
            with open(os.path.join(p, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def reference(graph, tmp_path_factory):
    out = {}
    for name, E in ENGINES.items():
        d = str(tmp_path_factory.mktemp(f"ref-{name}"))
        eng = E.make(graph, d)
        E.run(eng)
        eng.shutdown()
        assert eng.round > 3 * EVERY  # the crawl outlives the crash point
        out[name] = (eng.visit_order(), sorted(_corpus_urls(d)))
    return out


class _Crash(Exception):
    pass


def _install(m, point):
    """Make the step named ``point`` raise, through the commit module's
    own file calls."""
    if point == "after_flush":
        # outputs are flushed; the checkpoint's tmp directory is never made
        real_makedirs = os.makedirs

        def makedirs(path, *a, **k):
            if path.endswith(".tmp"):
                raise _Crash(point)
            return real_makedirs(path, *a, **k)

        m.setattr(commit.os, "makedirs", makedirs)
    elif point in ("mid_blobs", "second_checkpoint"):
        # the partition blob is half written
        real_write = commit._write

        def write(path, data):
            if path.endswith("part-0.pkl"):
                real_write(path, data[: len(data) // 2])
                raise _Crash(point)
            real_write(path, data)

        m.setattr(commit, "_write", write)
    elif point == "before_rename":
        real_replace = os.replace

        def replace(src, dst):
            if os.path.isdir(src):
                raise _Crash(point)
            real_replace(src, dst)

        m.setattr(commit.os, "replace", replace)
    elif point == "mid_prune":
        # COMMIT of the pruned round is gone, its directory still there
        real_rmtree = shutil.rmtree

        def rmtree(path, *a, **k):
            if not path.endswith(".tmp"):
                raise _Crash(point)
            real_rmtree(path, *a, **k)

        m.setattr(commit.shutil, "rmtree", rmtree)


@pytest.mark.parametrize(
    "point", ["after_flush", "mid_blobs", "before_rename", "second_checkpoint", "mid_prune"]
)
@pytest.mark.parametrize("engine", ["walk", "priority"])
def test_crash_point_resumes_to_uninterrupted_crawl(
    engine, point, graph, reference, tmp_path, monkeypatch
):
    E = ENGINES[engine]
    d = str(tmp_path / "out")
    eng = E.make(graph, d)
    E.run(eng, max_rounds=2 * EVERY)  # commits rounds 4 and 8
    committed = os.path.join(d, "ckpt", f"round={2 * EVERY:08d}")
    before = _tree_digest(committed)
    with monkeypatch.context() as m:
        _install(m, point)
        with pytest.raises(_Crash):
            if point == "second_checkpoint":
                eng.checkpoint()  # the round-8 commit already exists
            else:
                E.run(eng)  # crashes in the round-12 checkpoint or its prune
    eng.shutdown()  # the crashed process is gone; nothing else gets flushed
    assert _tree_digest(committed) == before  # a commit is never rewritten

    eng = E.resume(graph, d)
    assert eng.round == (3 * EVERY if point == "mid_prune" else 2 * EVERY)
    E.run(eng)
    eng.checkpoint()
    eng.shutdown()
    want_order, want_urls = reference[engine]
    assert eng.visit_order() == want_order
    urls = _corpus_urls(d)
    assert sorted(urls) == want_urls  # exactly once: no URL lost or repeated
    names = os.listdir(os.path.join(d, "ckpt"))
    assert names and all(
        re.fullmatch(r"round=\d{8}(\.\d+)?", n)
        and os.path.exists(os.path.join(d, "ckpt", n, "COMMIT"))
        for n in names
    ), names


def test_same_round_publishes_under_a_new_name(tmp_path):
    d = str(tmp_path)
    first = commit.write_round(d, 8, {"round": 8, "n": 1}, [b"a"], [{}])
    before = _tree_digest(first)
    second = commit.write_round(d, 8, {"round": 8, "n": 2}, [b"b"], [{}])
    assert os.path.basename(first) == "round=00000008"
    assert os.path.basename(second) == "round=00000008.1"
    assert _tree_digest(first) == before
    assert commit.latest(d).meta["n"] == 2
    assert not [n for n in os.listdir(os.path.join(d, "ckpt")) if n.endswith(".tmp")]


def test_latest_and_prune_order_by_round_then_suffix(tmp_path):
    d = str(tmp_path)
    for n in range(12):  # round=00000003, .1, ..., .11: ".10" sorts after ".9"
        commit.write_round(d, 3, {"round": 3, "n": n}, [b"x"], [{}])
    assert commit.latest(d).meta["n"] == 11
    commit.prune(d, keep_last=2)
    assert sorted(os.listdir(os.path.join(d, "ckpt"))) == [
        "round=00000003.10", "round=00000003.11"
    ]
    # a COMMIT inside an unpublished tmp dir is not trusted
    tmp = os.path.join(d, "ckpt", "round=00000009.tmp")
    os.makedirs(tmp)
    open(os.path.join(tmp, "COMMIT"), "w").write("ok")
    assert commit.latest(d).meta["n"] == 11


def test_resume_rejects_changed_inputs(graph, tmp_path):
    d = str(tmp_path)
    eng = PriorityCrawlEngine(graph, n_partitions=1, budget_per_round=3, out_dir=d)
    eng.run(max_fetches=10, checkpoint_every=2, max_rounds=2)
    eng.shutdown()
    with pytest.raises(ValueError, match=r"config\.min_politeness: stored 1, given 3"):
        PriorityCrawlEngine.resume(graph, d, config=CrawlConfig(min_politeness=3))
    other = make_webgraph(n_hosts=7, pages_per_host_base=6, n_seeds=4, seed=3)
    with pytest.raises(ValueError, match=r"graph\.hosts: stored"):
        PriorityCrawlEngine.resume(other, d)


# what a parent-written checkpoint holds; a resume reads exactly these
META_KEYS = {
    "walk": {"round", "steps", "outputs", "n_walkers", "n_partitions",
             "n_walker_shards", "seed", "salt", "config", "graph"},
    "priority": {"round", "fetched", "n_partitions", "budget", "salt", "config", "graph"},
}
PART_LINEAGE = {
    "walk": {"part_id", "metrics", "corpus_files", "state_bytes"},
    "priority": {"part_id", "metrics", "frontier_size", "corpus_files", "state_bytes"},
}


@pytest.mark.parametrize("engine", ["walk", "priority"])
def test_checkpoint_layout_is_pinned(engine, graph, tmp_path):
    """The files, ``meta.json`` keys and lineage keys of a committed round,
    per engine: checkpoints written by earlier code must still resume."""
    E = ENGINES[engine]
    d = str(tmp_path)
    eng = E.make(graph, d)
    E.run(eng, max_rounds=EVERY)
    eng.shutdown()
    ck = commit.latest(d)
    blobs = ["part-0.pkl"] + (["shard-0.pkl"] if engine == "walk" else [])
    assert sorted(os.listdir(ck.path)) == sorted(
        ["COMMIT", "lineage.json", "meta.json"] + blobs)
    assert set(ck.meta) == META_KEYS[engine]
    with open(os.path.join(ck.path, "lineage.json")) as f:
        lineage = json.load(f)
    assert set(lineage) == {"round", "visits_files", "partitions"} | (
        {"shards"} if engine == "walk" else set())
    assert [set(p) for p in lineage["partitions"]] == [PART_LINEAGE[engine]]
    if engine == "walk":
        assert [set(s) for s in lineage["shards"]] == [{"shard_id", "state_bytes"}]


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_commit_protocol_has_one_driver_home():
    """Among the crawl modules only the engine shell (driver side) and the
    partition core (actor side) use the commit protocol, and the priority
    engine does not import the walk engine."""
    crawl = os.path.join(os.path.dirname(commit.__file__), "..", "crawl")
    users = sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(crawl, "*.py"))
        if "texrex_ray.state.commit" in _imported_modules(p)
    )
    assert users == ["partition.py", "shell.py"]
    assert "texrex_ray.crawl.engine" not in _imported_modules(
        os.path.join(crawl, "priority.py"))
