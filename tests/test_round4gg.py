"""Round-4 batch GG: phash bit balance, data-quality rule suite."""

import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q260

def test_phash_bit_balance_matches_serial(ray_session):
    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.analytics_a import PPM

    got = QUERIES["q260_phash_bit_balance"](SF)
    d = fixture_path(n=300, seed=42)
    imgs = pd.read_parquet(f"{d}/images.parquet")
    n = len(imgs)
    want = {}
    for b in range(64):
        ones = sum((int(p) >> b) & 1 for p in imgs["phash"])
        want[b] = (n, ones, abs(2 * ones - n) * PPM // n)
    have = {
        int(r["bit"]): (int(r["n_images"]), int(r["n_ones"]),
                        int(r["bias_ppm"]))
        for _, r in got.iterrows()
    }
    assert have == want
    assert len(have) == 64
    # a healthy phash kernel keeps most bits informative: the median
    # bias must sit well under total (PPM)
    biases = sorted(v[2] for v in have.values())
    assert biases[32] < 600_000


# ------------------------------------------------------------------- q261

def test_data_quality_matches_serial(ray_session):
    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q261_data_quality"](SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    orders = pd.read_parquet(f"{SF}/orders.parquet")
    cust = pd.read_parquet(f"{SF}/customer.parquet")
    docs = pd.read_parquet(f"{SF}/documents.parquet")
    want = {
        "lineitem_orphan_order": (
            len(li),
            int((~li["l_orderkey"].isin(set(orders["o_orderkey"]))).sum()),
        ),
        "orders_orphan_customer": (
            len(orders),
            int((~orders["o_custkey"].isin(set(cust["c_custkey"]))).sum()),
        ),
        "discount_range": (
            len(li),
            int(((li["l_discount"] < 0) | (li["l_discount"] > 0.1)).sum()),
        ),
        "quantity_positive": (len(li), int((li["l_quantity"] <= 0).sum())),
        "doc_chars_match": (
            len(docs),
            int((docs["text"].str.len() != docs["n_chars"]).sum()),
        ),
    }
    have = {
        r["rule"]: (int(r["n_checked"]), int(r["n_violations"]))
        for _, r in got.iterrows()
    }
    assert have == want
    # the synthetic feed is referentially clean
    assert have["lineitem_orphan_order"][1] == 0
    assert have["orders_orphan_customer"][1] == 0
