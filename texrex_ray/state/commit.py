"""The crawl output directory and its one commit protocol.

Both crawl engines write this layout under ``out_dir``, and this is the
only module that knows it::

    visits/visits-rRRRRRRRR-NNNNNNNNNN.parquet   the engine's visit log
    corpus/part=PPPP/corpus-rRRRRRRRR.parquet    one file per partition flush
    ckpt/round=RRRRRRRR[.K]/                     one committed checkpoint

Output files carry the round they were flushed at and are written tmp →
``os.replace``.  A checkpoint is written into ``ckpt/round=RRRRRRRR.tmp/``
(state blobs, ``meta.json``, ``lineage.json``, then ``COMMIT``) and
published by one ``os.replace`` to a name that does not exist yet:
``round=RRRRRRRR``, else ``round=RRRRRRRR.K`` with the smallest free K.  A
published directory is never written again.  Resume and prune trust only
those exact names carrying a ``COMMIT``; anything else under ``ckpt/`` is
a crashed write or an interrupted prune.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.parquet as pq

# round, publish suffix K, or ".tmp" for an unpublished write
_CKPT_DIR = re.compile(r"round=(\d{8})(?:\.(\d+)|(\.tmp))?")
_STAMP = re.compile(r"-r(\d{8})")
# pin list-column types: a partition whose rows all have empty lists would
# otherwise infer list<null> and break cross-file unification
_LIST_COLUMNS = {k: pa.list_(pa.string()) for k in ("links", "img_srcs", "img_caps")}


def _listdir(d: str) -> list[str]:
    try:
        return sorted(os.listdir(d))
    except (FileNotFoundError, NotADirectoryError):
        return []


def _parquet_files(d: str) -> list[str]:
    return [os.path.join(d, f) for f in _listdir(d) if f.endswith(".parquet")]


# -- output files -----------------------------------------------------------


def write_parquet_atomic(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path + ".tmp")
    os.replace(path + ".tmp", path)


def flush_visits(out_dir: str, rnd: int, first_row: int, rows: list[tuple],
                 columns: list[tuple[str, pa.DataType]]) -> int:
    """Write visit rows (tuples in ``columns`` order) as one file; returns
    how many.  ``first_row`` (rows flushed before) keeps names unique."""
    if not rows:
        return 0
    t = pa.table({c: pa.array([r[i] for r in rows], typ)
                  for i, (c, typ) in enumerate(columns)})
    write_parquet_atomic(t, os.path.join(
        out_dir, "visits", f"visits-r{rnd:08d}-{first_row:010d}.parquet"))
    return len(rows)


def count_visits(out_dir: str) -> int:
    return sum(pq.read_metadata(f).num_rows
               for f in _parquet_files(os.path.join(out_dir, "visits")))


def read_visits(out_dir: str, columns: list[tuple[str, pa.DataType]]) -> list[tuple]:
    names = [c for c, _ in columns]
    rows: list[tuple] = []
    for f in _parquet_files(os.path.join(out_dir, "visits")):
        t = pq.read_table(f, columns=names)
        rows.extend(zip(*(t[c].to_pylist() for c in names)))
    return rows


def _corpus_dir(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, "corpus", f"part={part_id:04d}")


def flush_corpus(out_dir: str, part_id: int, rnd: int, rows: list[dict]) -> int:
    """Write one partition's corpus rows as one file; returns how many."""
    if not rows:
        return 0
    t = pa.table({k: pa.array([r[k] for r in rows], type=_LIST_COLUMNS.get(k))
                  for k in rows[0]})
    write_parquet_atomic(
        t, os.path.join(_corpus_dir(out_dir, part_id), f"corpus-r{rnd:08d}.parquet"))
    return len(rows)


def corpus_urls(out_dir: str) -> set[str]:
    """Every URL with a persisted corpus row."""
    root = os.path.join(out_dir, "corpus")
    return {u for p in _listdir(root) for f in _parquet_files(os.path.join(root, p))
            for u in pq.read_table(f, columns=["url"])["url"].to_pylist()}


# -- what a resume must be given unchanged ---------------------------------


def run_inputs(graph, config) -> dict:
    """The config fields and a digest of the graph's hosts and seeds, as
    ``meta.json`` stores them."""
    def digest(items) -> str:
        return hashlib.blake2b("\n".join(items).encode(), digest_size=16).hexdigest()

    return json.loads(json.dumps({
        "config": asdict(config),
        "graph": {"hosts": digest(graph.hosts), "seeds": digest(graph.seeds)},
    }))


def check_inputs(meta: dict, graph, config) -> None:
    """Raise ValueError naming each input that differs from the stored one."""
    given = run_inputs(graph, config)
    diffs = [
        f"{part}.{k}: stored {meta[part].get(k)!r}, given {given[part].get(k)!r}"
        for part in ("config", "graph")
        for k in sorted(meta[part].keys() | given[part].keys())
        if meta[part].get(k) != given[part].get(k)
    ]
    if diffs:
        raise ValueError("resume inputs differ from the checkpoint: " + "; ".join(diffs))


# -- checkpoints ------------------------------------------------------------


@dataclass
class Commit:
    """One published, COMMIT-marked checkpoint."""

    path: str
    meta: dict

    def blobs(self, kind: str, n: int) -> list[bytes]:
        out = []
        for i in range(n):
            with open(os.path.join(self.path, f"{kind}-{i}.pkl"), "rb") as f:
                out.append(f.read())
        return out


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)


def write_round(out_dir: str, rnd: int, meta: dict, parts: list[bytes],
                part_info: list[dict], shards: list[bytes] = ()) -> str:
    """Write and publish one checkpoint; returns its directory.  ``parts``
    / ``shards`` are per-actor state blobs, ``part_info`` each partition's
    lineage entry (its corpus files and state size are added here)."""
    root = os.path.join(out_dir, "ckpt")
    tmp = os.path.join(root, f"round={rnd:08d}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)  # left by a crashed attempt
    os.makedirs(tmp)
    for kind, blobs in (("shard", shards), ("part", parts)):
        for i, b in enumerate(blobs):
            _write(os.path.join(tmp, f"{kind}-{i}.pkl"), b)
    # lineage manifest: the output files each partition owns as of this
    # checkpoint, its metrics and state size — every persisted row can be
    # accounted for without opening the blobs
    def files(d: str) -> list[str]:
        return [os.path.basename(f) for f in _parquet_files(d)]

    lineage = {
        "round": rnd,
        "visits_files": files(os.path.join(out_dir, "visits")),
        "partitions": [
            {"part_id": i, **info, "corpus_files": files(_corpus_dir(out_dir, i)),
             "state_bytes": len(parts[i])}
            for i, info in enumerate(part_info)
        ],
    }
    if shards:
        lineage["shards"] = [{"shard_id": i, "state_bytes": len(b)}
                             for i, b in enumerate(shards)]
    _write(os.path.join(tmp, "meta.json"), json.dumps(meta).encode())
    _write(os.path.join(tmp, "lineage.json"), json.dumps(lineage).encode())
    _write(os.path.join(tmp, "COMMIT"), b"ok")
    name, k = f"round={rnd:08d}", 0
    while os.path.exists(os.path.join(root, name)):
        k += 1
        name = f"round={rnd:08d}.{k}"
    os.replace(tmp, os.path.join(root, name))
    return os.path.join(root, name)


def _ckpt_dirs(root: str) -> list[tuple[tuple[int, int], str, bool]]:
    """(round, K), name and committed-or-not of every checkpoint directory,
    oldest first."""
    out = []
    for d in _listdir(root):
        m = _CKPT_DIR.fullmatch(d)
        if m:
            ok = not m.group(3) and os.path.exists(os.path.join(root, d, "COMMIT"))
            out.append(((int(m.group(1)), int(m.group(2) or 0)), d, ok))
    return sorted(out)


def latest(out_dir: str) -> Commit:
    """The newest committed checkpoint; FileNotFoundError when none."""
    root = os.path.join(out_dir, "ckpt")
    names = [d for _, d, ok in _ckpt_dirs(root) if ok]
    if not names:
        raise FileNotFoundError(f"no committed checkpoint under {root}")
    path = os.path.join(root, names[-1])
    with open(os.path.join(path, "meta.json")) as f:
        return Commit(path, json.load(f))


def prune(out_dir: str, keep_last: int) -> list[str]:
    """Delete all but the newest ``keep_last`` committed checkpoints, and
    uncommitted directories older than the newest commit (rounds only
    grow, so those can never be finished).  One at or past the newest
    committed round is left alone: it may be a checkpoint in flight.
    COMMIT goes first, so a crash mid-delete leaves a directory resume
    already ignores.  Returns the deleted paths."""
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    root = os.path.join(out_dir, "ckpt")
    dirs = _ckpt_dirs(root)
    committed = [(key, d) for key, d, ok in dirs if ok]
    if not committed:
        return []
    doomed = [d for _, d in committed[:-keep_last]] + [
        d for key, d, ok in dirs if not ok and key[0] < committed[-1][0][0]
    ]
    for d in doomed:
        if os.path.exists(os.path.join(root, d, "COMMIT")):
            os.remove(os.path.join(root, d, "COMMIT"))
        shutil.rmtree(os.path.join(root, d))
    return [os.path.join(root, d) for d in doomed]


def remove_orphans(out_dir: str, upto_round: int) -> None:
    """Before resuming from round ``upto_round``: delete output files
    flushed after it (the resumed run re-produces them), tmp files, and
    every uncommitted checkpoint directory."""
    corpus = os.path.join(out_dir, "corpus")
    for d in [os.path.join(out_dir, "visits")] + [
        os.path.join(corpus, p) for p in _listdir(corpus)
    ]:
        for f in _listdir(d):
            m = _STAMP.search(f)
            if f.endswith(".tmp") or (f.endswith(".parquet") and m
                                      and int(m.group(1)) > upto_round):
                os.remove(os.path.join(d, f))
    root = os.path.join(out_dir, "ckpt")
    for _, d, ok in _ckpt_dirs(root):
        if not ok:
            shutil.rmtree(os.path.join(root, d))
