"""Round-4 session-5 batch AA: line breaking, RS parity, Euler topology."""

import numpy as np

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------- q415

def test_line_break_closed_forms():
    from texrex_ray.pipelines.queries.census_d import _line_break

    # single short token: one line, last line free
    assert _line_break(["hello"], 32) == (0, 1)
    # exactly-full line: zero badness even as a non-last line
    assert _line_break(["a" * 32, "bb"], 32) == (0, 2)
    # two tokens that fit together: greedy one-liner wins (last free)
    assert _line_break(["abc", "def"], 32) == (0, 1)
    # forced ragged line: 3 tokens of 12 chars; one line = 38 chars
    # (overflow), two lines of (12+1+12=25, 12): optimal = (32-25)^2
    toks = ["x" * 12] * 3
    bad, lines = _line_break(toks, 32)
    assert (bad, lines) == ((32 - 25) ** 2, 2)
    # overflowing single token is charged even as the last line
    bad, lines = _line_break(["y" * 40], 32)
    assert (bad, lines) == ((40 - 32) ** 2 * 1000, 1)


def test_line_break_matches_topdown_twin():
    from functools import lru_cache

    from texrex_ray.pipelines.queries.census_d import _LB_WIDTH, _line_break

    import random

    random.seed(9)

    def topdown(tokens: tuple, width: int) -> tuple:
        @lru_cache(maxsize=None)
        def go(i: int):
            n = len(tokens)
            if i == n:
                return 0, 0
            best = None
            for j in range(i + 1, n + 1):
                ln = sum(len(t) for t in tokens[i:j]) + (j - i - 1)
                if ln <= width:
                    bad = 0 if j == n else (width - ln) ** 2
                else:
                    bad = (ln - width) ** 2 * 1000
                rest, lines = go(j)
                c = (bad + rest, lines + 1)
                if best is None or c < best:
                    best = c
                if ln > width:
                    break
            return best
        return go(0)

    for _ in range(300):
        toks = tuple("w" * random.randint(1, 14)
                     for _ in range(random.randint(1, 20)))
        assert _line_break(list(toks), _LB_WIDTH) == topdown(toks, _LB_WIDTH)


# ------------------------------------------------------------------- q416

def test_rs_parity_codeword_property():
    from texrex_ray.stages.images import RsParity

    rp = RsParity()
    rng = np.random.RandomState(2)
    data = rng.randint(0, 256, (8, 64)).astype(np.uint8)
    par = rp._parity(data)
    # appending the parity yields a codeword: dividing the full 72-byte
    # message by g(x) must leave remainder zero.  Feed data+parity
    # through the SAME division with a 72-position loop via two calls:
    # parity(data || par) over a widened chunk equals 0 iff codeword.
    full = np.concatenate([data, par.astype(np.uint8)], axis=1)
    rp2 = RsParity()
    rp2.CHUNK = 72
    assert (rp2._parity(full) == 0).all()
    # single-byte corruption always produces a nonzero syndrome
    bad = full.copy()
    bad[:, 10] ^= 0x5A
    assert (rp2._parity(bad) != 0).any(axis=1).all()


def test_rs_parity_matches_peasant_twin():
    from texrex_ray.stages.images import RsParity

    def gfmul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & 0x100:
                a ^= 0x11D
        return r

    rp = RsParity()
    gen = rp.gen.tolist()
    rng = np.random.RandomState(5)
    data = rng.randint(0, 256, (6, 64)).astype(np.uint8)
    got = rp._parity(data)
    for i in range(6):
        rem = [0] * 8
        for byte in data[i].tolist():
            lead = rem[0] ^ byte
            rem = rem[1:] + [0]
            if lead:
                for k in range(8):
                    if gen[k + 1]:
                        rem[k] ^= gfmul(lead, gen[k + 1])
        assert got[i].tolist() == rem


# ------------------------------------------------------------------- q417

def test_euler_topology_closed_forms():
    from texrex_ray.stages.images import EulerTopology

    et = EulerTopology()
    # solid square: one component, no holes -> E = 1
    img = np.zeros((20, 20, 3), np.uint8)
    img[4:16, 4:16] = 255
    assert et._census(img) == (144, 1)
    # donut: one component, one hole -> E = 0
    img[8:12, 8:12] = 0
    assert et._census(img) == (128, 0)
    # two separate blobs -> E = 2
    img = np.zeros((20, 22, 3), np.uint8)
    img[2:6, 2:6] = 255
    img[10:15, 12:19] = 255
    assert et._census(img)[1] == 2
    # double donut (two holes in one blob) -> E = -1
    img = np.zeros((12, 24, 3), np.uint8)
    img[2:10, 2:22] = 255
    img[4:8, 5:9] = 0
    img[4:8, 15:19] = 0
    assert et._census(img)[1] == -1


def test_euler_diagonal_connectivity_is_8():
    from texrex_ray.stages.images import EulerTopology

    et = EulerTopology()
    # two pixels touching only diagonally: 8-connectivity -> ONE
    # component, and the 4-connected background has no enclosed hole
    img = np.zeros((10, 10, 3), np.uint8)
    img[4, 4] = 255
    img[5, 5] = 255
    n_fg, e = et._census(img)
    assert (n_fg, e) == (2, 1)
