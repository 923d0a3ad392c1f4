"""Batched derivation of the per-round random streams, bit for bit.

A round's stream is ``default_rng(SeedSequence(entropy))`` and a round
takes at most three 64-bit outputs from it.  This module computes the first
outputs for many entropy tuples at once, vectorised over numpy arrays: the
``SeedSequence`` pool mixing, its ``generate_state(4, uint64)``, PCG64's
seeding (``srandom``) and the LCG steps with the XSL-RR output function
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905).

Derivation takes each entropy word in the shape it varies over.  A call
asks for the streams ``prefix + (index, suffix)`` of m indices and R
suffixes.  The prefix words (seed, run, domain) are the same for all R * m
streams, so they are Python ints and mixed once per call; each index word is
a row of m values, mixed once per index; only the suffix word, a column of R
values, the 8-word output state and the PCG64 arithmetic run at (R, m), and
numpy broadcasting does the rest.  The 128-bit LCG state behind an output is
linear in the 16-bit halves of the output state, so one float64 matrix
product, exact because every sum stays below 2**53, gives its four 32-bit
limbs.

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
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, steps: int) -> list[int]:
    """The hash constants of ``steps`` hash steps: step k xors with the k-th and multiplies by the next."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# generate_state(8, uint32) hashes pool word i % 4 into state word i.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_STATE_HASH = tuple(np.array(c, dtype=_U32).reshape(2, _POOL_SIZE, 1, 1) for c in (_STATE_CONSTS[:-1], _STATE_CONSTS[1:]))

# PCG64: seeding steps the LCG twice and every output once more, so the
# state behind output k (from 1) is seed * A + inc * B for the factors
# A = M^(k+1) and B = M^(k+1) + ... + M + 1, mod 2**128.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MAX_OUTPUTS = 3
_OUTPUT_FACTORS = tuple(
    (pow(_PCG_MULT, k + 1, 1 << 128), sum(pow(_PCG_MULT, j, 1 << 128) for j in range(k + 2)) % (1 << 128))
    for k in range(1, _MAX_OUTPUTS + 1)
)

# generate_state(4, uint64) puts state words 0 to 3 at these bits of the
# 128-bit seed and words 4 to 7 at the same bits of seq, and inc = 2 seq + 1,
# so seed * A + inc * B = seed * A + seq * 2B + B is linear in the 16 halves
# of the state words.  Row 4k + c of _LIMB_ROWS holds the 32-bit limb c of
# each half's coefficient at the half's bit offset, low halves first, and
# then limb c of B.  A half (< 2**16) times an entry (< 2**32), summed over
# the 16 halves plus limb c of B, stays below 2**53, so float64 arithmetic
# gives every limb sum exactly, in any summation order.
_WORD_BITS = (64, 96, 0, 32)
_COEFFS = [[(a if w < 4 else 2 * b) << (_WORD_BITS[w % 4] + 16 * h) for h in (0, 1) for w in range(8)] + [b] for a, b in _OUTPUT_FACTORS]
_LIMB_ROWS = np.array([[t >> 32 * c & _MASK32 for t in coeffs] for coeffs in _COEFFS for c in range(4)], dtype=np.float64)


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


def _hash(value, before, after):
    """One SeedSequence hash step: xor with one hash constant, multiply by the next, fold."""
    value = (value ^ before) * after & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _seed_state(words: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(8, uint32)``, shape (8,) + the words' broadcast shape.

    A word is a Python int below 2**32 or a 2-D uint32 array, and a value
    mixed from words takes their broadcast shape, so a word that every stream
    of a call shares is mixed once, in Python ints.  The first four words
    fill the pool one mix at a time; each later word then mixes into all four
    pool words at once, along a leading pool axis.
    """
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(len(words), _POOL_SIZE))
    steps = zip(consts, consts[1:])

    def hashmix(value):
        return _hash(value, *next(steps))

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Each pool word now depends on all four first words, so all share one shape.
    pool = np.array([np.atleast_2d(w) for w in pool], dtype=_U32)
    for k in range(_POOL_SIZE, len(words)):
        c = np.array(consts[_POOL_SIZE * k : _POOL_SIZE * (k + 1) + 1], dtype=_U32).reshape(-1, 1, 1)
        pool = _mix(pool, _hash(words[k], c[:-1], c[1:]))
    return _hash(pool, *_STATE_HASH).reshape((2 * _POOL_SIZE,) + pool.shape[1:])


def _outputs(words: list, count: int) -> np.ndarray:
    """The first ``count`` ``next64`` of ``PCG64(SeedSequence(entropy))``, shape (count,) + the words' broadcast shape.

    ``words[k]`` is the k-th uint32 entropy word of every stream (see
    ``_seed_state``), so all streams of one call share a word count.
    """
    state = _seed_state(words)
    halves = np.concatenate([state & 0xFFFF, state >> 16], dtype=np.float64).reshape(16, state[0].size)
    rows = _LIMB_ROWS[: 4 * count]
    limbs = (rows[:, :-1] @ halves + rows[:, -1:]).astype(np.uint64).reshape(count, 4, -1)
    for c in range(3):
        limbs[:, c + 1] += limbs[:, c] >> 32
    lo = limbs[:, 0] & _MASK32 | limbs[:, 1] << 32
    hi = limbs[:, 2] & _MASK32 | limbs[:, 3] << 32
    # XSL-RR: rotate hi ^ lo right by the state's top six bits.
    folded, rot = lo ^ hi, hi >> 58
    return (folded >> rot | folded << (64 - rot & 63)).reshape((count,) + state.shape[1:])


def stream_outputs(
    prefix: tuple[int, ...], indices: np.ndarray, suffixes: tuple[int, ...], count: int
) -> np.ndarray:
    """The first ``count`` (at most 3) outputs of the streams ``prefix + (index, suffix)``.

    The result has shape (count, len(suffixes), len(indices)).  Every suffix
    must be below 2**32 (one entropy word); indices may be any uint64.  The
    prefix words are mixed once as Python ints, each index's words once per
    index, and only the suffix word and what follows it per stream.
    """
    if not 1 <= count <= _MAX_OUTPUTS:
        raise ValueError(f"count must be in 1..{_MAX_OUTPUTS}, got {count}")
    if not all(0 <= suffix <= _MASK32 for suffix in suffixes):
        raise ValueError(f"every suffix must be in 0..2**32 - 1, got {suffixes}")
    indices = np.asarray(indices, dtype=np.uint64)
    out = np.empty((count, len(suffixes), len(indices)), dtype=np.uint64)
    prefix_words = [w for p in prefix for w in _uint32_words(p)]
    suffix_words = np.array(suffixes, dtype=_U32).reshape(-1, 1)
    wide = indices > _MASK32
    for sel, index_words in ((~wide, (indices,)), (wide, (indices & _MASK32, indices >> 32))):
        if sel.any():
            words = prefix_words + [w[sel].astype(_U32).reshape(1, -1) for w in index_words] + [suffix_words]
            out[:, :, sel] = _outputs(words, count)
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
