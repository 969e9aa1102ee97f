"""Round-4 batch KK: Apriori pairs, palette quantization, Huffman bound."""

import heapq
from collections import Counter

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q271

def test_itemset_pairs_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_a import ITEMSET_MINSUP

    got = QUERIES["q271_itemset_pairs"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    d = li.drop_duplicates()
    m = d.merge(d, on="l_orderkey")
    m = m[m["l_partkey_x"] < m["l_partkey_y"]]
    g = m.groupby(["l_partkey_x", "l_partkey_y"]).size()
    want = {
        (int(p1), int(p2)): int(s)
        for (p1, p2), s in g.items() if s >= ITEMSET_MINSUP
    }
    have = {
        (int(r["p1"]), int(r["p2"])): int(r["support"])
        for _, r in got.iterrows()
    }
    assert have == want
    # Apriori soundness: every surviving part is itself frequent
    per_part = d.groupby("l_partkey").size()
    for p1, p2 in have:
        assert per_part[p1] >= ITEMSET_MINSUP
        assert per_part[p2] >= ITEMSET_MINSUP
    # ordering: support descending, then (p1, p2)
    keys = [(-int(r["support"]), int(r["p1"]), int(r["p2"]))
            for _, r in got.iterrows()]
    assert keys == sorted(keys)


# ------------------------------------------------------------------- q272

def _scalar_quant(px: np.ndarray, k: int = 8) -> tuple[int, int]:
    """Independent route: pure-Python scalar box-split (lists of pixel
    tuples; the stage keeps a flat numpy label array)."""
    boxes = [[tuple(int(c) for c in p) for p in px.reshape(-1, 3)]]
    while len(boxes) < k:
        best_bid, best_rng, best_ch = -1, 0, 0
        for bid, pts in enumerate(boxes):
            for ch in range(3):
                vs = [p[ch] for p in pts]
                r = max(vs) - min(vs)
                if r > best_rng:
                    best_bid, best_rng, best_ch = bid, r, ch
        if best_bid < 0 or best_rng == 0:
            break
        pts = boxes[best_bid]
        vs = [p[best_ch] for p in pts]
        mid = (min(vs) + max(vs)) // 2
        boxes[best_bid] = [p for p in pts if p[best_ch] <= mid]
        boxes.append([p for p in pts if p[best_ch] > mid])
    err = 0
    for pts in boxes:
        n = len(pts)
        c = [sum(p[ch] for p in pts) // n for ch in range(3)]
        err += sum((p[ch] - c[ch]) ** 2 for p in pts for ch in range(3))
    return len(boxes), err


def test_palette_stage_matches_scalar(ray_session):
    from texrex_ray.stages.images import PaletteQuant

    rng = np.random.default_rng(7)
    pq_ = PaletteQuant()
    for _ in range(6):
        px = rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8)
        assert pq_._quant(px) == _scalar_quant(px)
    # flat image: unsplittable, 1 box, zero error
    flat = np.full((8, 8, 3), 100, dtype=np.uint8)
    assert pq_._quant(flat) == (1, 0)


def test_palette_aggregate_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q272_palette_quant"](SF)
    fx = pd.read_parquet(
        "/root/repo/tests/fixtures/oracle/palette_fixture.parquet"
    )
    want = {
        fmt: (len(s), int(s["n_boxes"].sum()),
              int(s["quant_err"].sum()), int(s["quant_err"].max()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_images"]), int(r["sum_boxes"]),
                   int(r["sum_err"]), int(r["max_err"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # 8 colors cannot be exact for the photographic corpus
    assert any(v[2] > 0 for v in want.values())


# ------------------------------------------------------------------- q273

def _huffman_depth_bits(weights: list[int]) -> int:
    """Independent route: build the actual tree (heap of (w, id) with an
    explicit children map), sum freq x leaf depth — not the
    sum-of-merge-weights shortcut the query uses."""
    if len(weights) == 1:
        return weights[0]
    heap = [(w, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    children: dict[int, tuple[int, int]] = {}
    nxt = len(weights)
    while len(heap) > 1:
        wa, a = heapq.heappop(heap)
        wb, b = heapq.heappop(heap)
        children[nxt] = (a, b)
        heapq.heappush(heap, (wa + wb, nxt))
        nxt += 1
    root = heap[0][1]
    depth = {root: 0}
    order = [root]
    bits = 0
    while order:
        node = order.pop()
        if node in children:
            for ch in children[node]:
                depth[ch] = depth[node] + 1
                order.append(ch)
        elif node < len(weights):
            bits += weights[node] * depth[node]
    return bits


def test_huffman_matches_tree_depths(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q273_huffman_bits"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["lang", "text"])
    want = {}
    for lang, sub in docs.groupby("lang"):
        c = Counter()
        for t in sub["text"]:
            c.update(t.encode("utf-8"))
        n_bytes = sum(c.values())
        bits = _huffman_depth_bits(list(c.values()))
        want[lang] = (n_bytes, len(c), bits,
                      (8 * n_bytes - bits) * PPM // (8 * n_bytes))
    have = {
        r["lang"]: (int(r["n_bytes"]), int(r["n_symbols"]),
                    int(r["huff_bits"]), int(r["saved_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    for n_bytes, n_sym, bits, saved in want.values():
        # optimal prefix code: between 1 and 8 bits per byte on average
        assert n_bytes <= bits <= 8 * n_bytes
        assert saved > 0  # english-ish text always beats raw UTF-8
