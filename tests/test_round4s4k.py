"""Round-4 session-4 batch K: tree rollup, RAKE, cross-modal Pearson."""

import math
import re
from collections import Counter

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
TOK = re.compile(r"[a-z]+")


# ------------------------------------------------------------------- q367

def test_tree_rollup_matches_recursion(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q367_tree_rollup"](SF)
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_orderkey", "o_totalprice"])
    v = dict(zip(o["o_orderkey"].astype(int),
                 np.round(o["o_totalprice"] * 100).astype(np.int64)))
    sub: dict[int, int] = {}
    for k in sorted(v, reverse=True):  # children before parents
        s = int(v[k]) + sub.get(2 * k + 1, 0) + sub.get(2 * k + 2, 0)
        sub[k] = s
    rows = sorted(((n, s) for n, s in sub.items()),
                  key=lambda t: (-t[1], t[0]))[:5]
    want = pd.DataFrame(
        [(n, int(math.floor(math.log2(n + 1))), s) for n, s in rows],
        columns=["node", "depth", "subtree_sum_c"],
    ).astype("int64")
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # root holds the global total
    assert want["subtree_sum_c"].iloc[0] == sum(
        int(x) for x in v.values())


# ------------------------------------------------------------------- q368

def test_rake_matches_counter_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import _RAKE_STOP, rake_phrases

    got = QUERIES["q368_rake_keywords"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    freq: Counter = Counter()
    deg: Counter = Counter()
    pcount: Counter = Counter()
    for t in docs["text"]:
        for ph in rake_phrases(str(t)):
            pcount[" ".join(ph)] += 1
            for w in ph:
                freq[w] += 1
                deg[w] += len(ph)
    score = {w: deg[w] * 1_000_000 // freq[w] for w in freq}
    rows = sorted(
        ((p, n, sum(score[w] for w in p.split(" ")))
         for p, n in pcount.items()),
        key=lambda r: (-r[2], r[0]),
    )[:10]
    want = pd.DataFrame(
        rows, columns=["phrase", "n_occurrences", "score_scaled"]
    ).astype({"n_occurrences": "int64", "score_scaled": "int64"})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # no stopword survives inside any phrase
    for p in want["phrase"]:
        assert not set(p.split(" ")) & set(_RAKE_STOP)


def test_rake_phrase_splitting():
    from texrex_ray.pipelines.queries.census_c import rake_phrases

    assert rake_phrases("the quick fox and lazy dog") == [
        ("quick", "fox"), ("lazy", "dog")]
    assert rake_phrases("") == []
    assert rake_phrases("the of and") == []
    assert rake_phrases("alpha") == [("alpha",)]


# ------------------------------------------------------------------- q369

def test_crossmodal_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import SeamEnergy

    got = QUERIES["q369_crossmodal_corr"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet",
                           columns=["bytes", "fmt", "caption"])
    st = SeamEnergy.__new__(SeamEnergy)
    st.decode = decode_image
    rows = []
    for raw, fmt, cap in zip(imgs["bytes"], imgs["fmt"], imgs["caption"]):
        rows.append((fmt, len(TOK.findall(str(cap).lower())),
                     st._seam(decode_image(raw))))
    df = pd.DataFrame(rows, columns=["fmt", "tok", "seam"])
    want = []
    for fmt, sub in df.groupby("fmt"):
        n = len(sub)
        sx, sy = int(sub["tok"].sum()), int(sub["seam"].sum())
        sxx = int((sub["tok"].astype(object) ** 2).sum())
        syy = int((sub["seam"].astype(object) ** 2).sum())
        sxy = int((sub["tok"].astype(object) * sub["seam"]).sum())
        cov = n * sxy - sx * sy
        varx, vary = n * sxx - sx * sx, n * syy - sy * sy
        r2 = cov * cov * 1_000_000 // (varx * vary)
        want.append((fmt, n,
                     (-1 if cov < 0 else 1) * math.isqrt(r2 * 1_000_000)))
    want = pd.DataFrame(
        sorted(want), columns=["fmt", "n_images", "pearson_ppm"]
    ).astype({"n_images": "int64", "pearson_ppm": "int64"})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # captions are independent of pixels: |r| stays small
    assert (want["pearson_ppm"].abs() < 400_000).all()
