"""URL-seen backend factory: sharded scaling Bloom OR cuckoo filter.

The north rule's URL-seen set is a "sharded bloom/cuckoo filter"; both
backends expose the same first-wins API (``contains_many`` /
``add_if_new`` / ``chain_base`` / ``snapshot`` / ``restore``), so the crawl engine, its sequential oracle, and the
priority crawler pick one via ``CrawlConfig.url_seen_backend`` and stay
decision-identical at test scale (both are false-negative-free; neither
false-positives on the fixture corpus sizes — proven by the
engine-equivalence test).  Checkpoint snapshots are self-describing
(``kind`` key), so a restore never needs to know which backend wrote it.
"""

from __future__ import annotations

from texrex_ray.state.bloom import ScalingBloom
from texrex_ray.state.cuckoo import ScalingCuckoo

_BACKENDS = {"bloom": ScalingBloom, "cuckoo": ScalingCuckoo}


def make_url_seen(cfg) -> ScalingBloom | ScalingCuckoo:
    """Build the configured URL-seen filter from a CrawlConfig."""
    backend = getattr(cfg, "url_seen_backend", "bloom")
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown url_seen_backend {backend!r}; pick one of {sorted(_BACKENDS)}"
        ) from None
    return cls(
        initial_capacity=cfg.bloom_initial_capacity,
        error_rate=cfg.bloom_error_rate,
        max_memory_mb=cfg.bloom_max_memory_mb,
    )


def restore_url_seen(snap: dict) -> ScalingBloom | ScalingCuckoo:
    """Restore from a self-describing snapshot (pre-round-4 snapshots
    carry no ``kind`` key and are Bloom)."""
    return _BACKENDS[snap.get("kind", "bloom")].restore(snap)
