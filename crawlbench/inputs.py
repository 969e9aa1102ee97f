"""Seeded inputs: web graphs and a documents table.

Every input derives from the run's ``--seed``; nothing is read from outside
the checkout.  Web graphs are cached under ``.bench_cache/`` in the
checkout (see ``UNIVERSES``).  Documents are a seeded selection of rows of
``data/documents.parquet``, a copy of the ``documents`` table (5000 rows:
doc_id, text, lang, source, n_chars) of the repo's sf0.1 test data set,
the table ``bench.py`` cleans and pair-counts.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# the graph shape bench.py's crawl leg uses, scaled by host count
GRAPH_KW = dict(pages_per_host_base=6, max_pages_per_host=60, with_images=True)

# a run's seed picks one of this many web-graph universes (and seeds the
# walkers in full); synthesizing the 1200-host graph costs 8-14 s on one
# CPU, so each universe is built once per checkout and then loaded
UNIVERSES = 4


def webgraph(n_hosts: int, n_seeds: int, seed: int, cache_dir: str):
    """The seeded graph, from ``cache_dir`` when built before.  The cache key
    covers the generator's source, so a changed generator rebuilds."""
    import inspect
    import pickle

    import texrex_ray.sources.webgraph as wg

    universe = seed % UNIVERSES
    key = hashlib.blake2b(
        f"{inspect.getsource(wg)}|{n_hosts}|{n_seeds}|{universe}|{sorted(GRAPH_KW.items())}".encode(),
        digest_size=8,
    ).hexdigest()
    path = os.path.join(cache_dir, f"webgraph-h{n_hosts}-u{universe}-{key}.pkl")
    if os.path.exists(path):
        with open(path, "rb") as f:
            return pickle.load(f)
    g = wg.make_webgraph(n_hosts=n_hosts, n_seeds=n_seeds, seed=universe, **GRAPH_KW)
    os.makedirs(cache_dir, exist_ok=True)
    with open(path + ".tmp", "wb") as f:
        pickle.dump(g, f, protocol=5)
    os.replace(path + ".tmp", path)
    return g


DOCUMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "documents.parquet")


def documents(n: int, seed: int) -> pa.Table:
    """A seeded selection of ``n`` distinct rows of the committed documents
    table, in a seeded order."""
    table = pq.read_table(DOCUMENTS)
    idx = np.random.default_rng(seed).permutation(table.num_rows)[:n]
    if len(idx) < n:
        raise ValueError(f"{n} documents asked for, {table.num_rows} in {DOCUMENTS}")
    return table.take(pa.array(idx))
