"""Batched stream derivation against numpy's own SeedSequence, PCG64 and Generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzkd import streams
from ghzkd.adversary import EveStrategy
from ghzkd.protocol import (
    _ROLE_EVE,
    _ROUND_DOMAIN,
    Method,
    ProtocolConfig,
    _eve_draws,
    _menu_picks,
    _round_rng,
)

ROLES = tuple(range(6))

# Seeds of one, two and three entropy words, and zero.
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**140),
)
INDICES = st.lists(
    st.one_of(st.integers(0, 2**20), st.integers(2**32 - 2, 2**32 + 2), st.integers(2**32, 2**64 - 1)),
    min_size=1,
    max_size=6,
)


def _numpy(entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, run=st.integers(0, 2**33), domain=st.integers(0, 3), indices=INDICES)
def test_heads_and_draws_match_numpy(seed, run, domain, indices):
    heads = streams.stream_heads((seed, run, domain), np.array(indices, dtype=np.uint64), ROLES)
    assert heads.shape == (len(ROLES), len(indices))
    picks, rejected = streams.integers3(heads)
    unit = streams.random(heads)
    angle = streams.uniform_2pi(heads)
    for r, role in enumerate(ROLES):
        for j, index in enumerate(indices):
            entropy = (seed, run, domain, index, role)
            assert int(heads[r, j]) == int(_numpy(entropy).bit_generator.random_raw())
            assert rejected[r, j] == (int(heads[r, j]) & 0xFFFFFFFF == 0)
            if not rejected[r, j]:
                assert picks[r, j] == _numpy(entropy).integers(3)
            assert unit[r, j] == _numpy(entropy).random()
            assert angle[r, j] == _numpy(entropy).uniform(0.0, 2.0 * math.pi)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, run=st.integers(0, 2**33), domain=st.integers(0, 3), indices=INDICES)
def test_first_three_outputs_and_draw_sequences_match_numpy(seed, run, domain, indices):
    out = streams.stream_outputs((seed, run, domain), np.array(indices, dtype=np.uint64), ROLES, 3)
    assert out.shape == (3, len(ROLES), len(indices))
    low, high = streams.halves(out)
    unit = streams.random(out)
    guess, rejected = streams.integers3(out[0])
    for r, role in enumerate(ROLES):
        for j, index in enumerate(indices):
            entropy = (seed, run, domain, index, role)
            raw = _numpy(entropy).bit_generator
            assert [int(x) for x in out[:, r, j]] == [int(raw.random_raw()) for _ in range(3)]
            # Transit noise hitting particle a: random, integers(4), then c's
            # random and integers(4); the second bounded integer reads the
            # high half numpy kept from the first.
            rng = _numpy(entropy)
            expected = (rng.random(), rng.integers(4), rng.random(), rng.integers(4))
            got = (unit[0, r, j], streams.integers4(low[1, r, j]), unit[2, r, j], streams.integers4(high[1, r, j]))
            assert got == expected
            # Particle a untouched: random, then c's random and integers(4).
            rng = _numpy(entropy)
            expected = (rng.random(), rng.random(), rng.integers(4))
            assert (unit[0, r, j], unit[1, r, j], streams.integers4(low[2, r, j])) == expected
            # A guessing eavesdropper: integers(3), then random.
            if not rejected[r, j]:
                rng = _numpy(entropy)
                assert (guess[r, j], unit[1, r, j]) == (rng.integers(3), rng.random())


@pytest.mark.parametrize("seed", [3_000_000_007, (5 << 32) | 7, (9 << 64) | (1 << 40) | 11])
def test_session_sized_batch_matches_numpy(seed):
    # One seed of one, two and three entropy words; a batch of _MAX_BATCH
    # rounds, the largest a session plays in one call.
    indices = np.arange(4096, dtype=np.uint64)
    out = streams.stream_outputs((seed, 1, 0), indices, ROLES, 3)
    assert out.shape == (3, len(ROLES), 4096)
    checked = np.concatenate([[0, 4095], np.random.default_rng(seed).choice(np.arange(1, 4095), 50, replace=False)])
    for j in checked:
        for r, role in enumerate(ROLES):
            raw = _numpy((seed, 1, 0, int(indices[j]), role)).bit_generator.random_raw(3)
            assert out[:, r, j].tolist() == raw.tolist()


@pytest.mark.parametrize("seed", [7, (5 << 32) | 7, (9 << 64) | 11])
def test_streams_do_not_depend_on_call_history(seed):
    prefix = (seed, 1, 0)
    indices = np.array([0, 1, 5, 17, 2**32 - 1, 2**32, 2**40 + 3], dtype=np.uint64)
    full = streams.stream_outputs(prefix, indices, ROLES, 3).copy()
    assert np.array_equal(streams.stream_heads(prefix, indices, ROLES), full[0])
    for r, role in enumerate(ROLES):
        assert np.array_equal(streams.stream_outputs(prefix, indices, (role,), 3)[:, 0], full[:, r])
    for subset in ([0], [2, 4], [6, 1, 3], [5]):
        assert np.array_equal(streams.stream_outputs(prefix, indices[subset], ROLES, 3), full[:, :, subset])
    reverse = streams.stream_outputs(prefix, indices[::-1], ROLES[::-1], 3)
    assert np.array_equal(reverse, full[:, ::-1, ::-1])
    # Interleaved with calls on prefixes of one, two and three seed words.
    for other in (3, (9 << 32) | 1, (1 << 70) | 2):
        other_out = streams.stream_outputs((other, 2, 1), indices, ROLES, 3)
        assert not np.array_equal(other_out, full)
        assert np.array_equal(streams.stream_outputs(prefix, indices, ROLES, 3), full)
    empty = streams.stream_outputs(prefix, np.array([], dtype=np.uint64), ROLES, 2)
    assert empty.shape == (2, len(ROLES), 0)
    # A returned array is the caller's own: writing into it changes no later call.
    first = streams.stream_outputs(prefix, indices, ROLES, 3)
    first[...] = 0
    assert np.array_equal(streams.stream_outputs(prefix, indices, ROLES, 3), full)


def test_stream_outputs_count_is_bounded():
    for count in (0, 4):
        with pytest.raises(ValueError):
            streams.stream_outputs((1, 1, 1), np.array([0], dtype=np.uint64), ROLES, count)


def _generator_about_to_output(head_state: int) -> np.random.Generator:
    """A PCG64 generator whose next LCG step lands on ``head_state``."""
    bit_generator = np.random.PCG64()
    state = bit_generator.state
    inc = state["state"]["inc"]
    mult = (2549297995355413924 << 64) + 4865540595714422341
    previous = (head_state - inc) * pow(mult, -1, 1 << 128) % (1 << 128)
    state["state"]["state"] = previous
    state["has_uint32"], state["uinteger"] = 0, 0
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def test_lemire_rejection_is_flagged_where_numpy_redraws():
    # XSL-RR with rotation 0 (top six state bits clear) outputs hi ^ lo, so
    # this state's first output has low 32 bits 0 and high 32 bits 0xDEADBEEF.
    hi = 0x0123456789ABCDEF
    lo = hi ^ 0xDEADBEEF00000000
    head_state = (hi << 64) | lo
    head = np.array([_generator_about_to_output(head_state).bit_generator.random_raw()], dtype=np.uint64)
    assert int(head[0]) == 0xDEADBEEF00000000
    picks, rejected = streams.integers3(head)
    assert rejected[0]
    # Lemire's rule alone would say 0; numpy rejects and draws again.
    assert picks[0] == 0
    assert _generator_about_to_output(head_state).integers(3) == (0xDEADBEEF * 3) >> 32 == 2


def test_rejected_round_falls_back_to_its_real_generator():
    base = ((5 << 32) | 7, 1)
    rejected_head = np.array([0xDEADBEEF00000000], dtype=np.uint64)
    for role in ROLES:
        assert _menu_picks(base, 3, role, rejected_head)[0] == _round_rng(base, 3, role).integers(3)
    # Next to an accepted head, each round still gets its own generator's value.
    accepted_head = streams.stream_heads(base + (_ROUND_DOMAIN,), np.array([4], dtype=np.uint64), (0,))[0]
    picks = _menu_picks(base, 3, 0, np.concatenate([rejected_head, accepted_head]))
    assert picks.tolist() == [_round_rng(base, 3, 0).integers(3), _round_rng(base, 4, 0).integers(3)]


def test_negative_entropy_is_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, 1, 1, 0, 0))
    with pytest.raises(ValueError):
        streams.stream_heads((-1, 1, 1), np.array([0], dtype=np.uint64), ROLES)
    # A suffix is one entropy word.  A wider one is another stream than that
    # of its low word, so it is refused, as is a negative one.
    wide, low = (1, 1, 1, 3, 2**32 + 5), (1, 1, 1, 3, 5)
    assert _numpy(wide).bit_generator.random_raw() != _numpy(low).bit_generator.random_raw()
    for suffix in (2**32 + 5, 2**32, -1):
        with pytest.raises(ValueError):
            streams.stream_heads((1, 1, 1), np.array([3], dtype=np.uint64), (suffix,))


def test_rejected_eve_guess_falls_back_to_its_real_generator(monkeypatch):
    config = ProtocolConfig(
        method=Method.METHOD1, menu=(0.0, 1.0, 2.0), eve=EveStrategy.intercept_resend_a(), key_length=2
    )
    base = ((5 << 32) | 7, 1)
    start = 2**32 + 3
    indices = np.array([start, start + 1], dtype=np.uint64)
    outputs = streams.stream_outputs(base + (_ROUND_DOMAIN,), indices, (_ROLE_EVE,), 2)
    outputs[0, 0, 0] = 0xDEADBEEF00000000  # Lemire rejects the first round's guess
    monkeypatch.setattr(streams, "stream_outputs", lambda *args: outputs)
    guess, u = _eve_draws(config, base, indices)
    rng = _round_rng(base, start, _ROLE_EVE)
    assert (guess[0], u[0]) == (rng.integers(3), rng.random())
    assert guess[0] != 0  # what Lemire's rule alone says for the crafted word
    # The accepted round keeps its derived draws, which are its generator's.
    rng = _round_rng(base, start + 1, _ROLE_EVE)
    assert (guess[1], u[1]) == (rng.integers(3), rng.random())
