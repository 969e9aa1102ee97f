"""Exact deduplication.

Reference semantics: DuplicateDetector adds a 64-byte stride fingerprint of
each document to a global scaling Bloom filter; the first document wins and
later identical ones are killed (ref: trduplicatedetector.pas:114-122,
trdata.pas:1195-1211).  Two Ray-native variants:

- batch variant (here): content-hash column → ``groupby(hash).min(id)`` —
  deterministic keep-first-by-id, an exact shuffle-based dedup;
- streaming variant: the sharded Bloom actor pool in
  ``texrex_ray.state.bloom`` (first-wins in arrival order), used by the
  crawler where Bloom semantics are required.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data
from ray.data.aggregate import Min

from texrex_ray.functions.hashing import md5_hex


def with_md5(ds: ray.data.Dataset, text_col: str = "text", out_col: str = "text_md5") -> ray.data.Dataset:
    def add(t: pa.Table) -> pa.Table:
        return t.append_column(
            out_col, pa.array([md5_hex(s or "") for s in t[text_col].to_pylist()], pa.string())
        )

    return ds.map_batches(add, batch_format="pyarrow")


def exact_dedup_keep_ids(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Ids that survive exact dedup (min id per content hash).

    The groupby shuffle moves only (hash, id) pairs — the text column is
    projected away before the exchange.
    """
    from texrex_ray.ops.aggregate import bucketed_groupby

    hashed = with_md5(ds, text_col=text_col).select_columns(["text_md5", id_col])
    # dedup groups ≈ distinct documents ≈ rows: the high-cardinality
    # regime where Ray's native aggregate pays per-group Python overhead
    # (BENCH/BASELINE.md) — use the coarse-bucket pandas combine
    return bucketed_groupby(
        hashed,
        "text_md5",
        lambda g: g.groupby("text_md5", sort=False, as_index=False)[id_col].min(),
    ).select_columns([id_col])


def exact_dedup(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Full-row dedup: keep the min-id row per content hash.

    Keeps rows (not just ids) by shuffling on the hash and taking the
    min-id row per group.
    """
    import pandas as pd

    from texrex_ray.ops.aggregate import bucketed_groupby

    hashed = with_md5(ds, text_col=text_col)

    def first_per_hash(g: pd.DataFrame) -> pd.DataFrame:
        # min-id row per hash, vectorized over the whole bucket
        return g.sort_values(["text_md5", id_col]).drop_duplicates(
            "text_md5", keep="first"
        )

    return bucketed_groupby(hashed, "text_md5", first_per_hash)


def bloom_dedup_hashes(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    n_shards: int = 4,
    error_rate: float = 1e-6,
    backend: str = "bloom",
) -> "pd.DataFrame":
    """Streaming first-wins dedup via a sharded Bloom actor pool — the
    reference DuplicateDetector's exact semantics (one global scaling
    Bloom, first document wins; ref: trduplicatedetector.pas:114-122)
    distributed by hash-sharding the filter.

    Each ``map_batches`` task hashes its rows, routes each content hash to
    its shard actor (``stable_hash(md5) % n_shards`` — the same key always
    hits the same actor, so first-wins races never span actors), and
    emits the rows the shard accepted.  Because duplicates are exact, the
    accepted HASH SET equals the distinct-hash set regardless of arrival
    order — which is what makes this streaming op oracle-checkable
    (q22).  Returns the sorted accepted ``text_md5`` frame; actors are
    created with ``num_cpus=0`` (state holders, ~no compute) and killed
    on completion.
    """
    import numpy as np
    import pandas as pd
    import ray

    from texrex_ray.functions.hashing import md5_hex, stable_hash64
    from texrex_ray.state.urlseen import url_seen_class

    seen_cls = url_seen_class(backend)

    @ray.remote(num_cpus=0)
    class SeenShard:
        def __init__(self, error_rate: float):
            self.seen = seen_cls(error_rate=error_rate)

        def add_if_new(self, hashes: list[str]) -> list[bool]:
            return [bool(x) for x in self.seen.add_if_new(hashes)]

    shards = [SeenShard.remote(error_rate) for _ in range(n_shards)]

    def dedup(t: pa.Table) -> pa.Table:
        md5s = [md5_hex(s or "") for s in t[text_col].to_pylist()]
        part = (stable_hash64(md5s, seed=11) % np.uint64(n_shards)).astype(np.int64)
        accepted = np.zeros(len(md5s), dtype=bool)
        futs, idxs = [], []
        for s in range(n_shards):
            ix = np.nonzero(part == s)[0]
            if len(ix):
                futs.append(shards[s].add_if_new.remote([md5s[i] for i in ix]))
                idxs.append(ix)
        for ix, res in zip(idxs, ray.get(futs)):
            accepted[ix] = res
        keep = pa.array(accepted)
        return pa.table({"text_md5": pa.array(md5s, pa.string())}).filter(keep)

    try:
        out = (
            ds.map_batches(dedup, batch_format="pyarrow")
            .to_pandas()
            .sort_values("text_md5")
            .reset_index(drop=True)
        )
    finally:
        for a in shards:
            ray.kill(a)
    return out
