"""Round streams, ``protocol._round_rng``, against the pure-Python-int reference in ``tests/reference.py``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import GAMMA, MASK64, REDRAW, StreamRng, absorb, seed_words, unfinalize, word

from ghzkd.adversary import EveStrategy, NoiseModel
from ghzkd.ghz import GhzSpec
from ghzkd.protocol import (
    _KEY_DOMAIN,
    _METHOD1_ROLES,
    _ROLE_ALICE,
    _ROLE_BOB,
    _ROLE_EVE,
    _ROLE_MEASURE,
    _ROLE_NOISE,
    _ROUND_DOMAIN,
    Method,
    ProtocolConfig,
    _draw_key_bits,
    _eve_draws,
    _menu_picks,
    _round_rng,
    _transit_paulis,
    _unit,
    monte_carlo_violation_rate,
)

ROLES = tuple(range(6))
SLOTS = tuple(range(4))
MENU = (0.0, math.pi / 2, math.pi)

# Zero, and seeds of one, two and three or more 64-bit words.
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),
)
INDICES = st.lists(
    st.one_of(st.integers(0, 2**20), st.integers(2**32 - 2, 2**32 + 2), st.integers(2**63, 2**64 - 1)),
    min_size=1,
    max_size=6,
)


def _column(values, ndim=2):
    """``values`` as a uint64 array along the first of ``ndim`` axes, to broadcast against indices."""
    return np.array(values, dtype=np.uint64).reshape((-1,) + (1,) * (ndim - 1))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, run=st.integers(0, 2**33), domain=st.integers(0, 3), indices=INDICES)
def test_words_and_draws_match_the_reference(seed, run, domain, indices):
    idx = np.array(indices, dtype=np.uint64)
    words = _round_rng((seed, run), domain, idx, _column(ROLES, 3), _column(SLOTS, 2))
    assert words.shape == (len(ROLES), len(SLOTS), len(indices)) and words.dtype == np.uint64
    unit = _unit(words)
    paulis = words >> np.uint64(62)
    for r, role in enumerate(ROLES):
        for d, draw in enumerate(SLOTS):
            for j, index in enumerate(indices):
                coords = (seed, run, domain, index, role, draw)
                assert int(words[r, d, j]) == word(*coords)
                assert unit[r, d, j] == StreamRng(*coords).random()
                assert paulis[r, d, j] == StreamRng(*coords).integers(4)
    if domain == _ROUND_DOMAIN:
        picks = _menu_picks((seed, run), idx, _column(ROLES), words[:, 0])
        for r, role in enumerate(ROLES):
            assert picks[r].tolist() == [StreamRng(seed, run, domain, i, role).integers(3) for i in indices]


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    indices=INDICES,
    p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    guessing=st.booleans(),
)
def test_fixed_slots_match_the_reference_sequences(seed, indices, p, guessing):
    base = (seed, 1)
    idx = np.array(indices, dtype=np.uint64)
    eve = EveStrategy.intercept_resend_a(None if guessing else 0.3)
    config = ProtocolConfig(Method.METHOD1, menu=MENU, noise=NoiseModel.depolarizing(p), eve=eve)
    paulis = _transit_paulis(config, base, idx)
    guess, eve_u = _eve_draws(config, base, idx)
    for j, index in enumerate(indices):
        # Noise on a reads draws 0 (hit) and 1 (Pauli), noise on c draws 2 and 3.
        for k, start in enumerate((0, 2)):
            rng = StreamRng(seed, 1, _ROUND_DOMAIN, index, _ROLE_NOISE, start)
            hit = p > 0.0 and rng.random() < p
            assert paulis[k, j] == (rng.integers(4) if hit else 0)
        # Eve guesses at draw 0 and draws her outcome at draw 1.
        rng = StreamRng(seed, 1, _ROUND_DOMAIN, index, _ROLE_EVE, 0 if guessing else 1)
        assert guess[j] == (rng.integers(3) if guessing else 0)
        assert eve_u[j] == rng.random()


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, run=st.integers(1, 2), key_length=st.integers(1, 300))
def test_key_bits_match_the_reference(seed, run, key_length):
    # Key bit j is the top bit of the key domain's word at index j.
    config = ProtocolConfig(Method.METHOD2, key_length=key_length, seed=seed)
    bits = _draw_key_bits(config, (seed, run))
    assert bits.dtype == np.int64
    assert bits.tolist() == [StreamRng(seed, run, _KEY_DOMAIN, j, 0).integers(2) for j in range(key_length)]


@pytest.mark.parametrize("seed", [3_000_000_007, (5 << 64) | 7, (9 << 128) | (1 << 40) | 11])
def test_session_sized_batch_matches_the_reference(seed):
    # One seed of one, two and three words; a batch of _MAX_BATCH rounds,
    # the largest a session plays in one call, on every role's draw 0.
    indices = np.arange(4096, dtype=np.uint64)
    words = _round_rng((seed, 1), _ROUND_DOMAIN, indices, _column(ROLES))
    assert words.shape == (len(ROLES), 4096)
    for r, role in enumerate(ROLES):
        assert words[r].tolist() == [word(seed, 1, _ROUND_DOMAIN, j, role, 0) for j in range(4096)]


@pytest.mark.parametrize("seed", [7, (5 << 32) | 7, (9 << 64) | 11])
def test_streams_do_not_depend_on_call_history(seed):
    base = (seed, 1)
    indices = np.array([0, 1, 5, 17, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    roles, slots = _column(ROLES), _column(SLOTS, 3)

    def call(base=base, indices=indices, roles=roles):
        return _round_rng(base, _ROUND_DOMAIN, indices, roles, slots)

    full = call().copy()
    for r, role in enumerate(ROLES):
        assert np.array_equal(call(roles=role)[:, 0], full[:, r])
    for subset in ([0], [2, 4], [6, 1, 3], [5]):
        assert np.array_equal(call(indices=indices[subset]), full[:, :, subset])
    assert np.array_equal(call(indices=indices[::-1], roles=roles[::-1]), full[:, ::-1, ::-1])
    # Interleaved with calls on seeds of one, two and three words.
    for other in (3, (9 << 64) | 1, (1 << 130) | 2):
        assert not np.array_equal(call(base=(other, 2)), full)
        assert np.array_equal(call(), full)
    assert call(indices=np.array([], dtype=np.uint64)).shape == (len(SLOTS), len(ROLES), 0)
    # A returned array is the caller's own: writing into it changes no later call.
    first = call()
    first[...] = 0
    assert np.array_equal(call(), full)


def test_negative_entropy_is_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, 1, 1, 0, 0))
    with pytest.raises(ValueError):
        _round_rng((-1, 1), _ROUND_DOMAIN, np.array([0], dtype=np.uint64), _column(ROLES))
    with pytest.raises(ValueError):
        seed_words(-1)
    with pytest.raises(ValueError):
        monte_carlo_violation_rate(GhzSpec("+++", -1), (0.0, math.pi / 2, math.pi / 2), n_rounds=1, seed=-1)


def _index_with_word(seed, run, domain, role, draw, target):
    """The round index whose word at (role, draw) is ``target``: every absorbing step is invertible."""
    prefix = 0
    words = seed_words(seed)
    for w in (*words, len(words), run, domain):
        prefix = absorb(prefix, w)
    h = target
    for w in (draw, role):
        h = ((unfinalize(h) - GAMMA) & MASK64) ^ w
    return ((unfinalize(h) - GAMMA) & MASK64) ^ prefix


def test_rejected_word_redraws_the_menu_pick():
    base = ((5 << 64) | 7, 1)
    for role in (_ROLE_ALICE, _ROLE_BOB, 2, _ROLE_EVE):
        rejected = _index_with_word(*base, _ROUND_DOMAIN, role, 0, MASK64)
        indices = np.array([rejected, 3], dtype=np.uint64)
        words = _round_rng(base, _ROUND_DOMAIN, indices, role)
        assert int(words[0]) == MASK64 == word(*base, _ROUND_DOMAIN, rejected, role, 0)
        picks = _menu_picks(base, indices, role, words)
        # The rejected stream redraws at draw 2**32; the other keeps its own pick.
        assert picks[0] == word(*base, _ROUND_DOMAIN, rejected, role, REDRAW) % 3
        assert picks.tolist() == [StreamRng(*base, _ROUND_DOMAIN, i, role).integers(3) for i in (rejected, 3)]


def test_rejected_pick_in_a_menu_batch_redraws_only_its_stream():
    # A session's batch: draw-0 words of every menu role and the measurement.
    base = ((5 << 64) | 7, 1)
    bob = _index_with_word(*base, _ROUND_DOMAIN, _ROLE_BOB, 0, MASK64)
    indices = np.array([4, bob], dtype=np.uint64)
    words = _round_rng(base, _ROUND_DOMAIN, indices, _METHOD1_ROLES)
    assert (words == MASK64).tolist() == [[False, False], [False, True], [False, False], [False, False]]
    picks = _menu_picks(base, indices, _METHOD1_ROLES[:3], words[:3])
    expected = [[StreamRng(*base, _ROUND_DOMAIN, i, role).integers(3) for i in (4, bob)] for role in range(3)]
    assert picks.tolist() == expected
    assert picks[1, 1] == word(*base, _ROUND_DOMAIN, bob, _ROLE_BOB, REDRAW) % 3


def test_rejected_eve_guess_redraws():
    config = ProtocolConfig(Method.METHOD1, menu=MENU, eve=EveStrategy.intercept_resend_a(), key_length=2)
    base = ((5 << 32) | 7, 1)
    rejected = _index_with_word(*base, _ROUND_DOMAIN, _ROLE_EVE, 0, MASK64)
    indices = np.array([rejected, 2**32 + 4], dtype=np.uint64)
    guess, u = _eve_draws(config, base, indices)
    for j, index in enumerate(indices.tolist()):
        # The redraw moves the guess only: her outcome still reads draw 1.
        rng = StreamRng(*base, _ROUND_DOMAIN, index, _ROLE_EVE)
        assert (guess[j], u[j]) == (rng.integers(3), rng.random())
    assert guess[0] == word(*base, _ROUND_DOMAIN, rejected, _ROLE_EVE, REDRAW) % 3


def _assert_within_4_sigma(counts, p):
    n = int(np.sum(counts))
    sigma = math.sqrt(n * p * (1 - p))
    for count in np.ravel(counts):
        assert abs(count - n * p) <= 4 * sigma, (counts, n * p, sigma)


def test_draws_are_uniform_at_4_sigma():
    # One fixed batch of 2**16 rounds; each count against its binomial mean.
    base, n = (2024, 1), 2**16
    indices = np.arange(n, dtype=np.uint64)
    unit = _unit(_round_rng(base, _ROUND_DOMAIN, indices, _ROLE_MEASURE))
    _assert_within_4_sigma(np.bincount((unit * 16).astype(np.intp), minlength=16), 1 / 16)
    words = _round_rng(base, _ROUND_DOMAIN, indices, _METHOD1_ROLES)
    picks = _menu_picks(base, indices, _METHOD1_ROLES[:3], words[:3])
    for row in picks:
        _assert_within_4_sigma(np.bincount(row, minlength=3), 1 / 3)
    _assert_within_4_sigma(np.bincount(3 * picks[0] + picks[1], minlength=9), 1 / 9)
    config = ProtocolConfig(Method.METHOD2, noise=NoiseModel.depolarizing(1.0))
    for row in _transit_paulis(config, base, indices):
        _assert_within_4_sigma(np.bincount(row, minlength=4), 1 / 4)
