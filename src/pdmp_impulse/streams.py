"""Replicate streams computed over arrays, one row per replicate.

Row j of a batch carries the stream of ``np.random.default_rng([seed, reps[j]])``,
or of ``default_rng([seed, salt, reps[j]])`` for a key (seed, salt), without
building a Generator.  numpy's SeedSequence hashes the entropy words of
``[seed, r]`` into a pool of four 32-bit words and draws the PCG64 seed from
it; PCG64 steps a 128-bit LCG and emits the XSL-RR 128->64 output of each new
state (O'Neill, 2014).  Both run here on uint32/uint64 arrays.  A block of k
doubles comes by jump-ahead, s_i = a^i s + (a^(i-1) + ... + 1) inc for
i = 1..k, with the constants tabulated per block width, so a block costs a
few 128-bit multiplies per element rather than k Python-level steps (the
counter-style streams of Salmon et al., SC 2011).  Every double equals the
one ``Generator.random`` returns for that replicate.
"""

from __future__ import annotations

import numbers
import operator
from functools import lru_cache

import numpy as np

from .errors import DomainError

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

# numpy's SeedSequence constants (bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715

PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

CHUNK_ELEMENTS = 8192
"""Elements of each temporary array while streams are seeded and filled, in row
slices of CHUNK_ELEMENTS // width (one row at least) at any batch size."""


def _words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """32-bit words of non-negative integers, least significant first, as a
    (rows, width) uint32 array, with each value's word count (0 has one)."""
    cols = []
    while True:
        cols.append((values & MASK32).astype(np.uint32))
        values = values >> 32
        if not (values != 0).any():
            break
    words = np.stack(cols, axis=1)
    count = np.max(np.where(words != 0, np.arange(1, len(cols) + 1), 1), axis=1)
    return words, count


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on columns of entropy words."""
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, np.uint64) from the pool columns."""
    hash_const = INIT_B
    halves = []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    return [halves[2 * i] | (halves[2 * i + 1] << 32) for i in range(POOL_SIZE)]


def _mul(xh, xl, yh, yl):
    """x * y mod 2**128 for (high, low) uint64 words, through 32-bit limbs."""
    x0, x1 = xl & MASK32, xl >> 32
    y0, y1 = yl & MASK32, yl >> 32
    # High word of xl * yl (Hacker's Delight mulhu); no partial sum overflows.
    t = x1 * y0 + ((x0 * y0) >> 32)
    w = (t & MASK32) + x0 * y1
    carry = x1 * y1 + (t >> 32) + (w >> 32)
    return carry + xl * yh + xh * yl, xl * yl


def _add(xh, xl, yh, yl):
    """x + y mod 2**128 for (high, low) uint64 words."""
    lo = xl + yl
    return xh + yh + (lo < xl), lo


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


@lru_cache(maxsize=8)
def _jump_table(width: int):
    """a^i and a^(i-1) + ... + 1 mod 2**128 for i = 1..width, as (high, low)."""
    powers, sums = [PCG_MULT], [1]
    for _ in range(width - 1):
        sums.append((sums[-1] + powers[-1]) & MASK128)
        powers.append(powers[-1] * PCG_MULT & MASK128)
    return _split(powers) + _split(sums)


def entropy_key(seed) -> tuple[int, ...]:
    """The integers that precede r in ``default_rng([*key, r])``: one seed,
    or a sequence of them such as (seed, salt)."""
    key = tuple(map(operator.index, (seed,) if isinstance(seed, numbers.Integral) else seed))
    if min(key) < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return key


def seed_states(seed, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 state and increment of ``default_rng([*key, r])`` for each r of
    reps, with the key of :func:`entropy_key`, as (rows, 2) uint64 arrays of
    (high, low) words."""
    key = entropy_key(seed)
    reps = np.asarray(reps)
    if (reps < 0).any():
        raise DomainError("replicate indices must be non-negative")
    if reps.dtype != object:
        reps = reps.astype(np.uint64)
    # numpy concatenates the 32-bit words of each integer of the sequence.
    seed_words = [w for k in key for w in _words(np.array([k], dtype=object))[0][0].tolist()]
    state, inc = np.empty((reps.size, 2), np.uint64), np.empty((reps.size, 2), np.uint64)
    words, count = _words(reps)
    mult_hi, mult_lo = _split([PCG_MULT])
    # Beyond POOL_SIZE entropy words a missing word is not a zero word, so
    # rows are seeded per word count of r.
    for n in np.unique(count).tolist():
        same = np.flatnonzero(count == n)
        for first in range(0, same.size, CHUNK_ELEMENTS):
            rows = same[first:first + CHUNK_ELEMENTS]
            entropy = [np.full(rows.size, w, dtype=np.uint32) for w in seed_words]
            entropy += [words[rows, i] for i in range(n)]
            init_hi, init_lo, seq_hi, seq_lo = _generate_state(_pool(entropy))
            # pcg_setseq_128_srandom_r: state 0, one step, add initstate, one step.
            ih, il = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
            sh, sl = _add(ih, il, init_hi, init_lo)
            sh, sl = _add(*_mul(sh, sl, mult_hi, mult_lo), ih, il)
            state[rows, 0], state[rows, 1] = sh, sl
            inc[rows, 0], inc[rows, 1] = ih, il
    return state, inc


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of each state as a double in [0, 1)."""
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * 2.0 ** -53


def fill_block(state: np.ndarray, inc: np.ndarray, out: np.ndarray, rows=slice(None)) -> None:
    """Write the next out.shape[1] doubles of the given rows (all by default)
    into out, and advance their states in place."""
    a_hi, a_lo, c_hi, c_lo = _jump_table(out.shape[1])
    rows, step = np.arange(out.shape[0])[rows], max(1, CHUNK_ELEMENTS // out.shape[1])
    for first in range(0, rows.size, step):
        r = rows[first:first + step]
        hi, lo = _add(*_mul(state[r, :1], state[r, 1:], a_hi, a_lo),
                      *_mul(inc[r, :1], inc[r, 1:], c_hi, c_lo))
        out[r] = _doubles(hi, lo)
        state[r, 0], state[r, 1] = hi[:, -1], lo[:, -1]
