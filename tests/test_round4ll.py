"""Round-4 batch LL: bigram next-token accuracy, CRC ledger, Hilbert layout."""

import hashlib
import re
import zlib
from collections import Counter

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------------------------- q274

def test_bigram_nexttok_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM
    from texrex_ray.pipelines.queries.analytics_b import N_FOLDS

    got = QUERIES["q274_bigram_nexttok"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "lang", "text"])
    folds = docs["doc_id"].map(
        lambda i: int.from_bytes(
            hashlib.md5(str(int(i)).encode()).digest()[8:], "little"
        ) % N_FOLDS
    )
    train: Counter = Counter()
    ev_rows = []
    for (_, r), fold in zip(docs.iterrows(), folds):
        ws = TOK.findall(r["text"].lower())
        for w1, w2 in zip(ws[:-1], ws[1:]):
            if fold != 0:
                train[(w1, w2)] += 1
            else:
                ev_rows.append((r["lang"], w1, w2))
    best: dict[str, tuple] = {}
    for (w1, w2), n in train.items():
        # argmax with (count DESC, token ASC) tie-break
        cur = best.get(w1)
        if cur is None or (-n, w2) < cur:
            best[w1] = (-n, w2)
    pred = {w1: t[1] for w1, t in best.items()}
    want = {}
    for lang in sorted({r[0] for r in ev_rows}):
        rows = [r for r in ev_rows if r[0] == lang]
        n = len(rows)
        ok = sum(1 for _, w1, w2 in rows if pred.get(w1) == w2)
        want[lang] = (n, ok, ok * PPM // n)
    have = {
        r["lang"]: (int(r["n_bigrams"]), int(r["n_correct"]),
                    int(r["acc_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # a bigram LM on natural-ish text beats zero and never hits 100%
    for n, ok, acc in want.values():
        assert 0 < ok < n


# ------------------------------------------------------------------- q275

def test_crc_kernels_agree(ray_session):
    # zlib (query) vs table-driven pure Python (fixture) on random blobs
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

    rng = np.random.default_rng(11)
    for n in (0, 1, 7, 256, 4096):
        blob = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert crc32_py(blob) == zlib.crc32(blob)


def test_crc_ledger_matches_fixture(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q275_crc_ledger"](SF)
    fx = pd.read_parquet("/root/repo/tests/fixtures/oracle/crc_fixture.parquet")
    want = {
        fmt: (len(s), s["crc"].nunique(), int(s["crc"].sum()),
              int(s["crc"].min()), int(s["crc"].max()))
        for fmt, s in fx.groupby("fmt")
    }
    have = {
        r["fmt"]: (int(r["n_images"]), int(r["n_distinct"]),
                   int(r["sum_crc"]), int(r["min_crc"]), int(r["max_crc"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the fixture plants byte-exact duplicates — crc must collapse them
    assert any(v[1] < v[0] for v in want.values())


# ------------------------------------------------------------------- q276

def test_hilbert_curve_property(ray_session):
    from texrex_ray.pipelines.queries.census_a import hilbert_d_vec

    # exhaustive 8x8: a bijection whose consecutive indices are ALWAYS
    # grid-adjacent — the property Z-order lacks and the audit banks on
    n = 8
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    xs, ys = xs.ravel(), ys.ravel()
    d = hilbert_d_vec(3, xs, ys)
    assert sorted(d.tolist()) == list(range(n * n))
    order = np.argsort(d)
    step = (np.abs(np.diff(xs[order])) + np.abs(np.diff(ys[order])))
    assert (step == 1).all()


def test_hilbert_layout_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import ZORDER_FRAG
    from texrex_ray.pipelines.queries.census_a import HILBERT_ORDER, hilbert_d_vec

    got = QUERIES["q276_hilbert_layout"](SF)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "user_id", "value"])
    x = ev["user_id"].to_numpy().astype(np.int64)
    y = np.rint(ev["value"].to_numpy() * 100).astype(np.int64)
    hk = hilbert_d_vec(HILBERT_ORDER, x, y)
    zc = np.zeros(len(x), dtype=np.int64)
    for i in range(HILBERT_ORDER):
        zc += ((x >> i) & 1) << (2 * i)
        zc += ((y >> i) & 1) << (2 * i + 1)

    def audit(keys: np.ndarray) -> tuple:
        df = (
            pd.DataFrame({"k": keys, "e": ev["event_id"], "x": x, "y": y})
            .sort_values(["k", "e"])
            .reset_index(drop=True)
        )
        df["frag"] = df.index // ZORDER_FRAG
        g = df.groupby("frag")
        return (
            df["frag"].nunique(),
            int((g["x"].max() - g["x"].min()).sum()),
            int((g["y"].max() - g["y"].min()).sum()),
        )

    want = {"hilbert": audit(hk), "zorder": audit(zc)}
    have = {
        r["layout"]: (int(r["n_frag"]), int(r["sum_dx"]), int(r["sum_dy"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # same fragment count either way; both layouts must be non-trivial
    assert have["hilbert"][0] == have["zorder"][0] > 1
