"""Round-4 batch AD: BPE merges, kNN label noise, class balance plan."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q325

def test_bpe_textbook_example(ray_session):
    from texrex_ray.pipelines.queries.census_b import _bpe_merges

    # the Sennrich paper's toy: low/lower/newest/widest
    wf = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = _bpe_merges(wf, 4)
    # round 0: 'es' (newest 6 + widest 3 = 9) beats 'lo' (7), 'st' (9
    # ties with 'es' -> lexicographic 'es' < 'st')
    assert merges[0][1:] == ("e", "s", 9)
    assert merges[1][1:] == ("es", "t", 9)
    # merged symbols become atomic: 'est' pairs next with 'w'
    assert merges[2][1:] == ("l", "o", 7)
    # frequencies never increase round over round for the same pair
    assert all(m[3] >= 1 for m in merges)


def test_bpe_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import BPE_MERGES, _bpe_merges

    got = QUERIES["q325_bpe_merges"](SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    wf: dict = {}
    for txt in docs["text"]:
        for w in txt.split(" "):
            if w:
                wf[w] = wf.get(w, 0) + 1
    want = _bpe_merges(wf, BPE_MERGES)
    have = [tuple(r) for r in got.itertuples(index=False)]
    assert have == [tuple(m) for m in want]
    # merges build on each other: later pair members may be merged
    # symbols (length > 1) — check at least one does on this corpus
    assert any(len(l) > 1 or len(r) > 1 for _, l, r, _ in want)


# ------------------------------------------------------------------- q326

def test_knn_noise_query_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_b import KNN_NOISE_K

    got = QUERIES["q326_knn_label_noise"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    q = np.rint(np.asarray(list(emb["embedding"]), dtype=np.float64)
                * 1000.0).astype(np.int64)
    ids = emb["vec_id"].to_numpy().astype(np.int64)
    labels = emb["label"].to_numpy().astype(np.int64)
    n = len(q)
    dis: dict = {}
    tot: dict = {}
    for i in range(n):
        d = (q @ q[i]).astype(np.int64)
        order = np.lexsort((ids, -d))
        picked = [j for j in order if ids[j] != ids[i]][:KNN_NOISE_K]
        cnt: dict = {}
        for j in picked:
            cnt[int(labels[j])] = cnt.get(int(labels[j]), 0) + 1
        maj = min(cnt, key=lambda l: (-cnt[l], l))
        lab = int(labels[i])
        tot[lab] = tot.get(lab, 0) + 1
        if maj != lab:
            dis[lab] = dis.get(lab, 0) + 1
    want = {l: (tot[l], dis.get(l, 0)) for l in tot}
    have = {
        int(r["label"]): (int(r["n_vecs"]), int(r["n_disagree"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # disagreement never exceeds class size
    assert all(v[1] <= v[0] for v in want.values())


# ------------------------------------------------------------------- q327

def test_balance_plan_exactness(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q327_class_balance_plan"](SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet", columns=["label"])
    cnt = emb["label"].value_counts().sort_index()
    target = int(cnt.max())
    want = {
        int(l): (int(n), target // int(n), target % int(n))
        for l, n in cnt.items()
    }
    have = {
        int(r["label"]): (int(r["n"]), int(r["base_mult"]),
                          int(r["n_extra"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the plan is EXACT: n*base + extra == target for every class
    assert all(n * b + e == target for n, b, e in want.values())
    # majority class keeps multiplicity 1, no extras
    assert want[int(cnt.idxmax())][1:] == (1, 0)
