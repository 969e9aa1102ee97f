"""Round-4 session-4 batch Q: C4 rule census, pitch, shot boundaries."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q385

def test_c4_census_matches_pandas(ray_session):
    import re

    from texrex_ray.pipelines.queries import QUERIES

    got = QUERIES["q385_c4_rule_census"](SF).iloc[0]
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    tok = re.compile(r"[a-z]+")
    n = len(docs)
    r = {"r_short": 0, "r_no_terminal": 0, "r_curly": 0, "r_lorem": 0,
         "r_longword": 0, "n_survivors": 0}
    for t in docs["text"]:
        t = str(t)
        low = t.lower()
        f_short = len(tok.findall(low)) < 5
        f_noterm = not re.search(r'[.!?"]$', t.rstrip())
        f_curly = "{" in t
        f_lorem = "lorem ipsum" in low
        f_long = bool(re.search(r"[a-z]{26,}", low))
        r["r_short"] += f_short
        r["r_no_terminal"] += f_noterm
        r["r_curly"] += f_curly
        r["r_lorem"] += f_lorem
        r["r_longword"] += f_long
        r["n_survivors"] += not (f_short or f_noterm or f_curly
                                 or f_lorem or f_long)
    assert int(got["n_docs"]) == n
    for k, v in r.items():
        assert int(got[k]) == v, k


# ------------------------------------------------------------------- q386

def test_pitch_lag_finds_pure_tone():
    from texrex_ray.pipelines.queries.census_c import pitch_lag

    sr = 8000
    t = np.arange(sr)
    for f in (100, 250, 500):
        pcm = (0.8 * 32767 * np.sin(2 * np.pi * f * t / sr)).astype(
            np.int16)
        lag = pitch_lag(pcm, sr)
        assert abs(100 * sr // lag - 100 * f) <= 100 * f * 0.04


def test_pitch_query_matches_regenerated_twin(ray_session):
    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import pitch_lag
    from texrex_ray.pipelines.queries.flagships import _av_n
    from texrex_ray.sources.av import AUDIO_QUANT, _synth_pcm

    got = QUERIES["q386_pitch_detect"](SF)
    n_aud, _ = _av_n(SF)
    rows = []
    for i in range(n_aud):
        rng = np.random.default_rng(42 * 1_000_003 + i)
        sr = int(rng.choice([8000, 16000]))
        dur = float(rng.uniform(0.2, 1.0))
        pcm = _synth_pcm(rng, int(sr * dur), sr)
        fmt = "ogg" if i % 3 == 0 else "wav"
        q = AUDIO_QUANT[fmt]
        if q != 1:
            pcm = (np.round(pcm.astype(np.int32) / q) * q).clip(
                -32768, 32767).astype(np.int16)
        rows.append((fmt, 100 * sr // pitch_lag(pcm, sr)))
    df = pd.DataFrame(rows, columns=["fmt", "chz"])
    want = (
        df.groupby("fmt")["chz"]
        .agg(n_clips="size", sum_pitch_chz="sum", min_pitch_chz="min",
             max_pitch_chz="max")
        .reset_index()
        .astype({c: "int64" for c in
                 ("n_clips", "sum_pitch_chz", "min_pitch_chz",
                  "max_pitch_chz")})
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


# ------------------------------------------------------------------- q387

def test_shot_stats_detects_cut():
    from texrex_ray.pipelines.queries.census_c import shot_stats

    rng = np.random.default_rng(2)
    a = rng.integers(0, 30, (4, 8, 8, 3)).astype(np.uint8)
    b = rng.integers(200, 256, (4, 8, 8, 3)).astype(np.uint8)
    frames = np.concatenate([a, b])  # one hard cut in the middle
    n_pairs, n_bound, mx = shot_stats(frames)
    assert n_pairs == 7
    assert n_bound == 1
    assert mx > 0
    one = np.zeros((1, 4, 4, 3), np.uint8)
    assert shot_stats(one) == (0, 0, 0)


def test_shot_query_matches_parser_twin(ray_session):
    import struct

    from texrex_ray.pipelines.queries import QUERIES
    from texrex_ray.pipelines.queries.census_c import shot_stats
    from texrex_ray.pipelines.queries.flagships import _av_n
    from texrex_ray.sources.av import fixture_path as av_fixture

    got = QUERIES["q387_shot_boundaries"](SF).iloc[0]
    _, n_vid = _av_n(SF)
    d = av_fixture(n=n_vid, seed=42)
    vids = pd.read_parquet(f"{d}/video.parquet", columns=["bytes"])
    tot = [0, 0, 0, 0]
    for raw in vids["bytes"]:
        w, h, n, _fps = struct.unpack(">IIII", raw[4:20])
        frames = np.frombuffer(raw, np.uint8, n * h * w * 3, 20).reshape(
            n, h, w, 3)
        a, b, c = shot_stats(frames)
        tot[0] += 1
        tot[1] += a
        tot[2] += b
        tot[3] += c
    assert int(got["n_videos"]) == tot[0]
    assert int(got["n_frame_pairs"]) == tot[1]
    assert int(got["n_boundaries"]) == tot[2]
    assert int(got["sum_max_diff"]) == tot[3]
