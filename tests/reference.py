"""Pure-Python-int reference of the round streams, for ``==`` tests of ``protocol._round_rng``.

A word of the stream (seed, run, domain, index, role) at draw number d is a
counter hash in the style of SplitMix64: starting from 0, absorb the seed's
little-endian 64-bit words (0 is one word), their count, the run, the
domain, the index, the role and d, each step being the SplitMix64 finalizer
of (h xor word) + gamma.  ``StreamRng`` reads one stream's words in draw
order, as the scalar reference engine in ``tests/test_protocol.py`` needs.
"""

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
#: A rejected bounded integer redraws at the draw number plus this, repeatedly.
REDRAW = 1 << 32


def finalize(z: int) -> int:
    """SplitMix64's output function on a 64-bit int."""
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def unfinalize(z: int) -> int:
    """The inverse of ``finalize``: undo each xorshift and multiply in reverse order."""

    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(MIX2, -1, 1 << 64)) & MASK64, 27)
    return unshift((z * pow(MIX1, -1, 1 << 64)) & MASK64, 30)


def absorb(h: int, word: int) -> int:
    return finalize(((h ^ word) + GAMMA) & MASK64)


def seed_words(seed: int) -> list[int]:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return [(seed >> shift) & MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)]


def word(seed: int, run: int, domain: int, index: int, role: int, draw: int) -> int:
    """The 64-bit word of stream (seed, run, domain, index, role) at draw number ``draw``."""
    words = seed_words(seed)
    h = 0
    for w in (*words, len(words), run, domain, index, role, draw):
        h = absorb(h, w)
    return h


class StreamRng:
    """Sequential draws from one stream, starting at draw number ``draw``; each draw reads one word."""

    def __init__(self, seed, run, domain, index, role, draw=0):
        self.coords = (seed, run, domain, index, role)
        self.draw = draw

    def _next(self) -> int:
        w = word(*self.coords, self.draw)
        self.draw += 1
        return w

    def random(self) -> float:
        """The word's top 53 bits over 2**53."""
        return (self._next() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """A uniform integer below ``n``: the top bits when ``n`` is a power of two, else ``w % n``.

        A word at or above the largest multiple of ``n`` below 2**64 (for
        n = 3 only 2**64 - 1) redraws at the draw number plus ``REDRAW``.
        """
        if n & (n - 1) == 0:
            return self._next() >> (65 - n.bit_length())
        limit = (1 << 64) - (1 << 64) % n
        draw = self.draw
        w = self._next()
        while w >= limit:
            draw += REDRAW
            w = word(*self.coords, draw)
        return w % n
