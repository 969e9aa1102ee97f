"""Round-4 session-5 batch X: cuckoo FPR audit, mu-law codec, Bayer audit."""

import numpy as np

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q406

def test_cuckoo_membership_and_no_false_negatives():
    from texrex_ray.state.cuckoo import ScalingCuckoo

    ck = ScalingCuckoo(initial_capacity=256, error_rate=0.01)
    keys = [f"k:{i}" for i in range(2000)]  # forces table scaling
    fresh = ck.add_if_new(keys)
    assert fresh.all()
    assert len(ck.segments) >= 2
    # cuckoo filters never produce false negatives
    assert ck.contains_many(keys).all()
    # re-add is idempotent
    assert not ck.add_if_new(keys[:100]).any()
    # snapshot round-trip preserves membership bit-exactly
    snap = ck.snapshot()
    ck2 = ScalingCuckoo.restore(snap)
    probes = [f"p:{i}" for i in range(5000)]
    assert (ck.contains_many(probes) == ck2.contains_many(probes)).all()


def test_cuckoo_fpr_in_design_envelope():
    from texrex_ray.state.cuckoo import ScalingCuckoo

    ck = ScalingCuckoo(initial_capacity=4096, error_rate=0.01)
    ck.add_if_new([f"k:{i}" for i in range(10_000)])
    probes = [f"x:{i}" for i in range(20_000)]
    fpr = ck.contains_many(probes).mean()
    # 16-bit fingerprints, <=4 tables x 8 candidate slots: FPR well
    # under 1e-2 and realistically around tables*8/65536 ~ 4e-4
    assert fpr < 0.005


# ------------------------------------------------------------------- q407

def test_mulaw_spec_values():
    from texrex_ray.stages.av import mulaw_decode, mulaw_encode

    # ITU G.711 table endpoints: +-32124 extremes, code 0xFF = +0
    assert mulaw_decode(np.array([0x80], np.uint8))[0] == 32124
    assert mulaw_decode(np.array([0x00], np.uint8))[0] == -32124
    assert mulaw_decode(np.array([0xFF], np.uint8))[0] == 0
    # value-level idempotence over the whole int16 range (two-zeros
    # code asymmetry means CODE-level idempotence fails at -0, by spec)
    x = np.arange(-32768, 32768, dtype=np.int16)
    rec = mulaw_decode(mulaw_encode(x))
    assert (mulaw_decode(mulaw_encode(rec)) == rec).all()
    err = np.abs(rec.astype(np.int64) - x.astype(np.int64))
    # logarithmic: tiny near zero, bounded by the top-segment step
    assert err[32768 - 128:32768 + 128].max() <= 8
    assert err.max() <= 644


def test_mulaw_matches_scalar_twin():
    from texrex_ray.stages.av import mulaw_decode, mulaw_encode

    def enc1(x: int) -> int:
        sign = 1 if x < 0 else 0
        m = min(abs(x), 32635) + 0x84
        e = 0
        while m >= (0x100 << e) and e < 7:
            e += 1
        mant = (m >> (e + 3)) & 0x0F
        return ~((sign << 7) | (e << 4) | mant) & 0xFF

    def dec1(code: int) -> int:
        c = ~code & 0xFF
        sign, e, mant = (c >> 7) & 1, (c >> 4) & 7, c & 0x0F
        m = (((mant << 3) | 0x84) << e) - 0x84
        return -m if sign else m

    rng = np.random.RandomState(3)
    x = rng.randint(-32768, 32768, 4000).astype(np.int16)
    codes = mulaw_encode(x)
    assert codes.tolist() == [enc1(int(v)) for v in x]
    assert mulaw_decode(codes).tolist() == [dec1(int(c)) for c in codes]


# ------------------------------------------------------------------- q408

def test_bayer_exact_on_smooth_content():
    from texrex_ray.stages.images import BayerAudit

    ba = BayerAudit()
    # flat, grayscale ramp and constant-chroma fields reconstruct
    # exactly under bilinear demosaic
    flat = np.full((10, 12, 3), 77, np.uint8)
    assert ba._census(flat) == (80, 0, 0, 0, 0)
    g = np.tile(np.arange(12, dtype=np.uint8) * 20, (10, 1))
    assert ba._census(np.stack([g] * 3, axis=2))[1:] == (0, 0, 0, 0)
    red = np.zeros((10, 12, 3), np.uint8)
    red[:, :, 0] = 255
    assert ba._census(red)[1:] == (0, 0, 0, 0)
    # chroma checkerboard: worst case — G stays exact, R/B alias hard
    cb = np.zeros((10, 12, 3), np.uint8)
    cb[::2, ::2, 0] = 255
    cb[1::2, 1::2, 0] = 255
    cb[::2, 1::2, 2] = 255
    cb[1::2, ::2, 2] = 255
    n, sr, sg, sb, mx = ba._census(cb)
    assert sg == 0 and sr > 0 and sb > 0 and mx == 255


def test_bayer_matches_scalar_twin():
    import os

    import pyarrow.parquet as pq

    from texrex_ray.pipelines.caption import fixture_path
    from texrex_ray.sources.images import decode_image
    from texrex_ray.stages.images import BayerAudit

    d = fixture_path(n=300, seed=42)
    imgs = pq.read_table(os.path.join(d, "images.parquet"),
                         columns=["bytes"]).to_pandas()
    ba = BayerAudit()
    for raw in imgs["bytes"][:4]:
        px = decode_image(raw).astype(np.int64)
        h, w = px.shape[:2]
        mos = [[0] * w for _ in range(h)]
        for y in range(h):
            for x in range(w):
                ch = 0 if (y % 2 == 0 and x % 2 == 0) else \
                    2 if (y % 2 == 1 and x % 2 == 1) else 1
                mos[y][x] = int(px[y][x][ch])
        sse = [0, 0, 0]
        mx = 0
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                cc = mos[y][x]
                cross = (mos[y - 1][x] + mos[y + 1][x]
                         + mos[y][x - 1] + mos[y][x + 1])
                dia = (mos[y - 1][x - 1] + mos[y - 1][x + 1]
                       + mos[y + 1][x - 1] + mos[y + 1][x + 1])
                hp = mos[y][x - 1] + mos[y][x + 1]
                vp = mos[y - 1][x] + mos[y + 1][x]
                if y % 2 == 0 and x % 2 == 0:
                    rec = (cc, cross // 4, dia // 4)
                elif y % 2 == 1 and x % 2 == 1:
                    rec = (dia // 4, cross // 4, cc)
                elif y % 2 == 0:
                    rec = (hp // 2, cc, vp // 2)
                else:
                    rec = (vp // 2, cc, hp // 2)
                for ch in range(3):
                    e = rec[ch] - int(px[y][x][ch])
                    sse[ch] += e * e
                    mx = max(mx, abs(e))
        got = ba._census(px.astype(np.uint8))
        assert got == ((h - 2) * (w - 2), sse[0], sse[1], sse[2], mx)
