"""Batched derivation of the per-round random streams, bit for bit.

A round's stream is ``default_rng(SeedSequence(entropy))`` and a round
takes at most three 64-bit outputs from it.  This module computes the first
outputs for many entropy tuples at once, vectorised over numpy arrays: the
``SeedSequence`` pool mixing, its ``generate_state(4, uint64)``, PCG64's
seeding (``srandom``) and the LCG steps with the XSL-RR output function
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905).  The 128-bit
LCG runs on four 32-bit limbs.

The draws below reproduce ``Generator.integers(3)``, ``integers(4)``,
``random()`` and ``uniform(0, 2*pi)`` from those outputs.  ``random()``
reads a whole output; a bounded integer reads one 32-bit half, and numpy
hands out the low half first and keeps the high half for the next bounded
integer.  ``tests/test_streams.py`` pins all of it to numpy's own
implementation.
"""

from __future__ import annotations

import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_U32 = np.uint32

# SeedSequence's hash constants and pool size.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_XSHIFT = _U32(16)

# PCG64: seeding steps the LCG twice and every output once more, so the
# state behind output k (from 1) is seed * M^(k+1) + inc * (M^(k+1) + ... + M + 1).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MAX_OUTPUTS = 3
_OUTPUT_FACTORS = tuple(
    (pow(_PCG_MULT, k + 1, 1 << 128), sum(pow(_PCG_MULT, j, 1 << 128) for j in range(k + 2)) % (1 << 128))
    for k in range(1, _MAX_OUTPUTS + 1)
)


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int (0 is one word)."""
    if n < 0:
        raise ValueError(f"entropy must be non-negative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _seed_state(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, uint32)`` for each column of entropy words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * _U32(hash_const)
        return value ^ (value >> _XSHIFT)

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(words[src]))

    state, hash_const = [], _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ _U32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * _U32(hash_const)
        state.append(value ^ (value >> _XSHIFT))
    return state


def _mul_add(terms) -> list[np.ndarray]:
    """Sum of (four-limb value, constant) products mod 2**128, as four uint64 limbs < 2**32."""
    cols = [np.uint64(0)] * 4
    for limbs, const in terms:
        c = [np.uint64(const >> (32 * k) & _MASK32) for k in range(4)]
        for i in range(4):
            for j in range(4 - i):
                p = limbs[i] * c[j]
                cols[i + j] = cols[i + j] + (p & _MASK32)
                if i + j < 3:
                    cols[i + j + 1] = cols[i + j + 1] + (p >> 32)
    out, carry = [], np.uint64(0)
    for col in cols:
        col = col + carry
        out.append(col & _MASK32)
        carry = col >> 32
    return out


def _outputs(words: list[np.ndarray], count: int) -> np.ndarray:
    """The first ``count`` ``next64`` of ``PCG64(SeedSequence(entropy))``, shape (count, streams).

    ``words[k]`` holds the k-th uint32 entropy word of every stream, so all
    streams of one call share a word count.
    """
    s = [w.astype(np.uint64) for w in _seed_state([np.asarray(w, dtype=_U32) for w in words])]
    # generate_state(4, uint64) gives seed = (s0|s1<<32) << 64 | (s2|s3<<32), inc likewise from s4..s7.
    seed = [s[2], s[3], s[0], s[1]]
    seq = [s[6], s[7], s[4], s[5]]
    inc = [((seq[0] << 1) | 1) & _MASK32]
    inc += [((seq[k] << 1) | (seq[k - 1] >> 31)) & _MASK32 for k in (1, 2, 3)]
    out = np.empty((count, len(seed[0])), dtype=np.uint64)
    for k, (seed_factor, inc_factor) in enumerate(_OUTPUT_FACTORS[:count]):
        x = _mul_add(((seed, seed_factor), (inc, inc_factor)))
        lo, hi = x[0] | (x[1] << 32), x[2] | (x[3] << 32)
        folded, rot = lo ^ hi, x[3] >> 26
        out[k] = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    return out


def stream_outputs(
    prefix: tuple[int, ...], indices: np.ndarray, suffixes: tuple[int, ...], count: int
) -> np.ndarray:
    """The first ``count`` (at most 3) outputs of the streams ``prefix + (index, suffix)``.

    The result has shape (count, len(suffixes), len(indices)).  Every suffix
    must be below 2**32 (one entropy word); indices may be any uint64.
    """
    if not 1 <= count <= _MAX_OUTPUTS:
        raise ValueError(f"count must be in 1..{_MAX_OUTPUTS}, got {count}")
    indices = np.asarray(indices, dtype=np.uint64)
    n = len(indices)
    out = np.empty((count, len(suffixes), n), dtype=np.uint64)
    wide = indices > _MASK32
    for sel, index_words in ((~wide, (indices,)), (wide, (indices & _MASK32, indices >> 32))):
        m = int(np.count_nonzero(sel))
        if m:
            words = [np.full(m * len(suffixes), w, dtype=np.uint64) for p in prefix for w in _uint32_words(p)]
            words += [np.tile(w[sel], len(suffixes)) for w in index_words]
            words.append(np.repeat(np.asarray(suffixes, dtype=np.uint64), m))
            out[:, :, sel] = _outputs(words, count).reshape(count, len(suffixes), m)
    return out


def stream_heads(prefix: tuple[int, ...], indices: np.ndarray, suffixes: tuple[int, ...]) -> np.ndarray:
    """First outputs of the streams ``prefix + (index, suffix)``, one row per suffix."""
    return stream_outputs(prefix, indices, suffixes, 1)[0]


def integers3(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(3)`` by Lemire's rule, and where numpy would reject and redraw.

    The rule reads the low 32 bits ``lo`` of the first output and returns
    ``(lo * 3) >> 32``; numpy rejects exactly when ``lo == 0``, and such a
    stream's value must come from the real generator.
    """
    lo = heads & np.uint64(_MASK32)
    return ((lo * np.uint64(3)) >> np.uint64(32)).astype(np.int64), lo == 0


def integers4(words: np.ndarray) -> np.ndarray:
    """``Generator.integers(4)`` from the 32-bit word it reads (see ``halves``).

    Lemire's ``(w * 4) >> 32`` is the word's top two bits, and it never
    rejects because 4 divides 2**32.
    """
    return (words >> np.uint64(30)).astype(np.int64)


def halves(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 32-bit words of 64-bit outputs, in the order bounded integers read them."""
    return outputs & np.uint64(_MASK32), outputs >> np.uint64(32)


def random(heads: np.ndarray) -> np.ndarray:
    """``Generator.random()``: the top 53 bits scaled into [0, 1)."""
    return (heads >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def uniform_2pi(heads: np.ndarray) -> np.ndarray:
    """``Generator.uniform(0.0, 2*pi)``."""
    return 2.0 * math.pi * random(heads)
