"""Array streams against numpy's own ``default_rng(seed)``, draw by draw."""

import random

import numpy as np
import pytest

from mvspectral._streams import Streams

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 7]


def random_seeds(count=24):
    """Seeds of exactly 8 to 160 bits, so of one to five uint32 words."""
    draw = random.Random(40)
    return [draw.getrandbits(bits) | 1 << (bits - 1)
            for bits in (draw.randint(8, 160) for _ in range(count))]


SEEDS = EDGE_SEEDS + random_seeds()
BOUNDS = [1, 2, 116, 2**31 + 1]


def generators(seeds):
    return [np.random.default_rng(s) for s in seeds]


def test_seeds_cover_every_word_count():
    words = {max(1, -(-s.bit_length() // 32)) for s in SEEDS}
    assert words == {1, 2, 3, 4, 5, 7}


def test_random_equals_default_rng():
    streams, rngs = Streams(SEEDS), generators(SEEDS)
    rows = np.arange(len(SEEDS))
    for _ in range(10):
        np.testing.assert_array_equal(streams.random(rows), [g.random() for g in rngs])


@pytest.mark.parametrize("n", BOUNDS)
def test_integers_equal_default_rng(n, monkeypatch):
    draws = []
    next32 = Streams._next32
    monkeypatch.setattr(Streams, "_next32", lambda self, rows: draws.append(len(rows))
                        or next32(self, rows))
    streams, rngs = Streams(SEEDS), generators(SEEDS)
    rows = np.arange(len(SEEDS))
    for _ in range(12):
        np.testing.assert_array_equal(streams.integers(n, rows), [g.integers(n) for g in rngs])
    # What each stream consumed shows in the draws after it.
    np.testing.assert_array_equal(streams.random(rows), [g.random() for g in rngs])
    np.testing.assert_array_equal(streams.integers(116, rows), [g.integers(116) for g in rngs])
    made = sum(draws) - len(SEEDS)
    if n == 1:
        assert made == 0
    elif n == 2**31 + 1:
        # 2**32 % n = 2**31 - 1: about half of all 32-bit draws are rejected.
        assert made > 1.5 * 12 * len(SEEDS)
    else:
        assert made >= 12 * len(SEEDS)


def test_mixed_selections_equal_default_rng():
    # Each step some seeds draw random(), some integers(n), and the rest nothing.
    streams, rngs = Streams(SEEDS), generators(SEEDS)
    choose = np.random.default_rng(41)
    for _ in range(80):
        kind = choose.integers(3, size=len(SEEDS))
        n = BOUNDS[choose.integers(len(BOUNDS))]
        live, dead = np.flatnonzero(kind == 0), np.flatnonzero(kind == 1)
        np.testing.assert_array_equal(streams.random(live), [rngs[r].random() for r in live])
        np.testing.assert_array_equal(streams.integers(n, dead),
                                      [rngs[r].integers(n) for r in dead])
    rows = np.arange(len(SEEDS))
    np.testing.assert_array_equal(streams.random(rows), [g.random() for g in rngs])


def test_numpy_integer_seeds_and_a_consensus_range():
    seeds = [np.uint64(2**64 - 1), np.int64(5), np.uint32(7)] + list(range(2**64 - 3, 2**64 + 2))
    streams, rngs = Streams(seeds), generators(seeds)
    rows = np.arange(len(seeds))
    np.testing.assert_array_equal(streams.integers(116, rows), [g.integers(116) for g in rngs])
    np.testing.assert_array_equal(streams.random(rows), [g.random() for g in rngs])


def test_one_seed():
    streams, rng = Streams([12345]), np.random.default_rng(12345)
    row = np.arange(1)
    for n in BOUNDS:
        assert streams.integers(n, row)[0] == rng.integers(n)
        assert streams.random(row)[0] == rng.random()
