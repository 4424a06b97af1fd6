"""The draws of many ``np.random.default_rng(seed)`` generators, made at once.

``default_rng(seed)`` is PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
2014) seeded through ``SeedSequence(seed)``.  ``Streams`` repeats both, bit
for bit, over an array of seeds, so a draw for S seeds is a few dozen numpy
calls on (S,) arrays rather than S generator objects:

- Seeding.  A seed's little-endian uint32 words fill SeedSequence's pool of
  four, zero-padded; words past the fourth are mixed in afterwards, under a
  per-seed mask, so seeds of any size work.  ``generate_state(4, uint64)``
  then gives PCG64's initial state and increment, which ``srandom`` sets.
- The 128-bit state is held as high and low uint64 arrays; an LCG step
  multiplies through 32-bit halves, and the XSL-RR output is
  ``rotr(high ^ low, high >> 58)``.
- ``random()`` is ``(next64 >> 11) * 2**-53``.  ``integers(n)`` is Lemire's
  bounded method on ``next_uint32``, which returns the low half of a fresh
  64-bit output and keeps the high half for the next call.

All arithmetic is on unsigned arrays, which wrap without a warning.
"""

from __future__ import annotations

import numpy as np

# SeedSequence's hash constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4

_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(s) for s in (1, 11, 32, 58, 63, 64))
# PCG64's 128-bit multiplier, as its high and low words, and the low word's halves.
_MULT_HI = np.uint64(2549297995355413924)
_MULT_LO = np.uint64(4865540595714422341)
_MULT_LO_HI, _MULT_LO_LO = _MULT_LO >> _U32, _MULT_LO & _LOW32


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """A SeedSequence hash's constant before each of ``count`` calls and after the last.

    Returns:
        uint32 column of shape (count + 1, 1)
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray, call: int) -> np.ndarray:
    """Hash row r of ``values`` as SeedSequence's hash call ``call + r`` does.

    Each call xors with the current constant, advances it and multiplies by
    the new one, so the calls of a sequence differ only in their constants.
    """
    stop = call + len(values)
    values = (values ^ consts[call:stop]) * consts[call + 1:stop + 1]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> np.uint32(16))


def _seed_state(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed, as (4, S)."""
    ints = [int(s) for s in seeds]
    width = max(_POOL_SIZE, -(-max(ints).bit_length() // 32))
    words = np.frombuffer(b"".join([s.to_bytes(4 * width, "little") for s in ints]),
                          dtype="<u4").reshape(len(ints), width).T.astype(np.uint32)
    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix each further word of a seed, up to its last
    # nonzero one, into all four.
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * width)
    pool = _hash(words[:_POOL_SIZE], consts, 0)
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        hashed = _hash(np.broadcast_to(pool[src], (len(others), len(ints))), consts, call)
        pool[others] = _mix(pool[others], hashed)
        call += len(others)
    for src in range(_POOL_SIZE, width):
        hashed = _hash(np.broadcast_to(words[src], pool.shape), consts, call)
        pool = np.where((words[src:] != 0).any(axis=0), _mix(pool, hashed), pool)
        call += _POOL_SIZE
    # generate_state: 8 uint32 words cycling over the pool, paired little-endian.
    halves = _hash(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 8), 0)
    halves = halves.astype(np.uint64)
    return halves[0::2] | (halves[1::2] << _U32)


def _mul_hi(a: np.ndarray) -> np.ndarray:
    """High word of the 128-bit product ``a * _MULT_LO``."""
    a_hi, a_lo = a >> _U32, a & _LOW32
    lo_lo, lo_hi = a_lo * _MULT_LO_LO, a_lo * _MULT_LO_HI
    hi_lo = a_hi * _MULT_LO_LO
    middle = (lo_lo >> _U32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return a_hi * _MULT_LO_HI + (lo_hi >> _U32) + (hi_lo >> _U32) + (middle >> _U32)


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, ``state * multiplier + increment`` mod 2**128, on (high, low) words."""
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = _mul_hi(lo) + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


class Streams:
    """One ``default_rng(seed)`` stream per seed, advanced together.

    Draws take ``rows``, distinct indices into ``seeds``, and advance only
    those streams; each row's values are those its own generator would give.
    """

    def __init__(self, seeds):
        state_hi, state_lo, seq_hi, seq_lo = _seed_state(seeds)
        self._inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
        self._inc_lo = (seq_lo << _U1) | _U1
        # srandom: step from 0 (which gives the increment), add the state, step.
        lo = self._inc_lo + state_lo
        hi = self._inc_hi + state_hi + (lo < state_lo)
        self._hi, self._lo = _step(hi, lo, self._inc_hi, self._inc_lo)
        self._has_upper = np.zeros(len(lo), dtype=bool)
        self._upper = np.zeros(len(lo), dtype=np.uint64)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        hi, lo = _step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows], self._lo[rows] = hi, lo
        turn = hi >> _U58
        mixed = hi ^ lo
        return (mixed >> turn) | (mixed << ((_U64 - turn) & _U63))

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        kept = self._has_upper[rows]
        out = self._upper[rows]
        fresh = rows[~kept]
        if fresh.size:
            value = self._next64(fresh)
            out[~kept] = value & _LOW32
            self._upper[fresh] = value >> _U32
        self._has_upper[rows] = ~kept
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``Generator.random()`` for each row: float64 in [0, 1)."""
        return (self._next64(rows) >> _U11) * 2.0 ** -53

    def integers(self, n: int, rows: np.ndarray) -> np.ndarray:
        """``Generator.integers(n)`` for each row, for ``1 <= n <= 2**32``: int64 in [0, n).

        ``n = 1`` draws nothing.  Otherwise a 32-bit draw x gives
        ``m = x * n``, and ``m >> 32`` unless the low word of ``m`` is below
        ``2**32 % n``, when that row draws again.
        """
        draws = np.zeros(len(rows), dtype=np.uint64)
        if n == 1:
            return draws.astype(np.int64)
        bound, threshold = np.uint64(n), np.uint64(2 ** 32 % n)
        todo = np.arange(len(rows))
        while todo.size:
            m = self._next32(rows[todo]) * bound
            draws[todo] = m >> _U32
            todo = todo[(m & _LOW32) < threshold]
        return draws.astype(np.int64)
