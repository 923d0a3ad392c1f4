"""Closed-form parity math against the numeric engine and brute-force oracles."""

import itertools
import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzkd.core import Mode, MeasurementSetting, _joint_probs, expectation, joint_outcome_distribution, project_single, tensor3
from ghzkd.ghz import (
    SUPER_CLASSICAL_TOL,
    GhzSpec,
    analytic_expectation,
    bob_phases,
    compatible_outcomes,
    ghz_state,
    is_super_classical,
    menu_quality,
    outcome_probs,
    parity_rule,
    solve_bob_phase,
    super_classical_triples,
)

TWO_PI = 2 * math.pi


def _settings(mode, phases):
    return tuple(MeasurementSetting(mode, p) for p in phases)


def test_spec_validation_and_canonicalization():
    assert GhzSpec("-++", -1).pattern == "+--"
    assert GhzSpec("-++", -1).phase == -1
    assert GhzSpec("---", 1).pattern == "+++"
    assert str(GhzSpec("++-", -1)) == "++-,-"
    assert GhzSpec.parse("+-+,-") == GhzSpec("+-+", -1)
    assert len(set(GhzSpec.all_canonical())) == 8
    with pytest.raises(ValueError):
        GhzSpec("++", -1)
    with pytest.raises(ValueError):
        GhzSpec("+++", 0)
    with pytest.raises(ValueError):
        GhzSpec.parse("+++")


def test_ghz_state_amplitudes():
    amps = ghz_state(GhzSpec("+++", -1))
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[7] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert np.allclose(amps, expected, atol=1e-15)
    amps = ghz_state(GhzSpec("++-", -1))
    assert amps[1] == pytest.approx(1 / math.sqrt(2))
    assert amps[6] == pytest.approx(-1 / math.sqrt(2))
    for spec in GhzSpec.all_canonical():
        assert np.sum(np.abs(ghz_state(spec)) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_ghz_state_flip_invariance():
    # Constructing the flipped ray by hand (construction canonicalizes it away)
    for spec in GhzSpec.all_canonical():
        flipped = np.zeros(8, dtype=complex)
        flipped[7 - spec.ket_index] = 1 / math.sqrt(2)
        flipped[spec.ket_index] = spec.phase / math.sqrt(2)
        overlap = abs(np.vdot(ghz_state(spec), flipped))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_analytic_expectation_sign_rules():
    phases = (0.31, 1.7, 0.42)
    p1, p2, p3 = phases
    assert analytic_expectation(GhzSpec("+++", -1), phases) == pytest.approx(-math.cos(p1 + p2 + p3))
    assert analytic_expectation(GhzSpec("+++", 1), phases) == pytest.approx(math.cos(p1 + p2 + p3))
    assert analytic_expectation(GhzSpec("++-", -1), phases) == pytest.approx(-math.cos(p1 + p2 - p3))
    assert analytic_expectation(GhzSpec("-++", -1), phases) == pytest.approx(-math.cos(-p1 + p2 + p3))
    assert analytic_expectation(GhzSpec("+-+", -1), (0.3, 0.2, 0.1)) == pytest.approx(-math.cos(0.2))


def test_analytic_matches_numeric_both_modes():
    rng = np.random.default_rng(7)
    for spec in GhzSpec.all_canonical():
        psi = ghz_state(spec)
        for _ in range(150):
            phases = tuple(rng.uniform(0, TWO_PI, size=3))
            want = analytic_expectation(spec, phases)
            for mode in Mode:
                got = expectation(psi, _settings(mode, phases))
                assert abs(got - want) <= 1e-10


def test_is_super_classical():
    spec = GhzSpec("+++", -1)
    assert is_super_classical(spec, (math.pi / 2, math.pi / 4, math.pi / 4)) == 1
    assert is_super_classical(spec, (0.0, 0.0, 0.0)) == -1
    assert is_super_classical(spec, (math.pi / 3, 0.0, 0.0)) is None
    # wraps modulo 2*pi and respects the tolerance
    assert is_super_classical(spec, (TWO_PI - 1e-12, 1e-13, 0.0)) == -1
    assert is_super_classical(spec, (0.0, 0.0, 5e-10)) == -1
    assert is_super_classical(spec, (0.0, 0.0, 2e-9)) is None


def test_compatible_outcomes_partition():
    plus = compatible_outcomes(1)
    minus = compatible_outcomes(-1)
    assert plus == {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    assert minus == {(-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)}
    assert len(plus | minus) == 8 and not (plus & minus)


def _random_super_classical(rng, spec):
    s1, s2, s3 = spec.signs
    p1, p2 = rng.uniform(0, TWO_PI, size=2)
    target = math.pi * rng.integers(2)
    p3 = (s3 * (target - s1 * p1 - s2 * p2)) % TWO_PI
    return (p1, p2, p3)


def test_super_classical_collapse_property():
    rng = np.random.default_rng(12)
    for spec in GhzSpec.all_canonical():
        psi = ghz_state(spec)
        for _ in range(20):
            phases = _random_super_classical(rng, spec)
            parity = is_super_classical(spec, phases)
            assert parity is not None
            for mode in Mode:
                dist = joint_outcome_distribution(psi, _settings(mode, phases))
                allowed = compatible_outcomes(parity)
                for triple, p in dist.items():
                    want = 0.25 if triple in allowed else 0.0
                    assert abs(p - want) <= 1e-10


def test_born_support_lies_in_the_compatible_outcomes():
    rng = np.random.default_rng(4)
    spec = GhzSpec("+-+", -1)
    psi = ghz_state(spec)
    phases = _random_super_classical(rng, spec)
    parity = is_super_classical(spec, phases)
    dist = joint_outcome_distribution(psi, _settings(Mode.SPIN, phases))
    for triple, p in dist.items():
        if p > 1e-12:
            assert triple in compatible_outcomes(parity)


I2 = np.eye(2)
#: I, X, Y and Z, indexed as the transit noise draws them.
_PAULIS = (I2, np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4))
def test_outcome_law_matches_the_state_vector_engine(angles):
    # Every spec, mode, Pauli pair on a and c and eavesdropper outcome, at
    # drawn angles, super-classical or not.  The reference prepares the ray,
    # applies the Pauli on a and then on c, projects a onto Eve's outcome and
    # takes the Born probabilities of the parties' settings.
    *phases, eve = angles
    paulis = np.array(list(itertools.product(range(4), repeat=2))).T
    rows = np.tile(phases, (16, 1))
    for spec, mode in itertools.product(GhzSpec.all_canonical(), Mode):
        laws = {None: outcome_probs(spec, rows, paulis)}
        laws.update((x, outcome_probs(spec, rows, paulis, np.full(16, eve), np.full(16, x))) for x in (1, -1))
        for law in laws.values():
            assert law.shape == (16, 8) and law.min() >= 0.0
            assert np.max(np.abs(law.sum(axis=1) - 1.0)) <= 1e-12
        settings_ = _settings(mode, phases)
        for j, (pa, pc) in enumerate(paulis.T):
            state = tensor3(I2, I2, _PAULIS[pc]) @ (tensor3(_PAULIS[pa], I2, I2) @ ghz_state(spec))
            assert np.max(np.abs(laws[None][j] - _joint_probs(state, settings_))) <= 1e-12
            for x in (1, -1):
                p_x, post = project_single(state, 1, MeasurementSetting(mode, eve), x)
                assert abs(p_x - 0.5) <= 1e-12
                assert np.max(np.abs(laws[x][j] - _joint_probs(post, settings_))) <= 1e-12


def test_solve_bob_phase_worked_examples():
    spec = GhzSpec("+++", -1)
    phi_b = solve_bob_phase(spec, math.pi / 2, math.pi / 4, 1)
    assert phi_b == pytest.approx(math.pi / 4)
    assert analytic_expectation(spec, (math.pi / 2, phi_b, math.pi / 4)) == pytest.approx(1.0)
    phi_b = solve_bob_phase(spec, math.pi / 2, math.pi / 4, -1)
    assert phi_b == pytest.approx(5 * math.pi / 4)
    assert analytic_expectation(spec, (math.pi / 2, phi_b, math.pi / 4)) == pytest.approx(-1.0)
    phi_b = solve_bob_phase(GhzSpec("+-+", -1), 0.0, 0.0, 1)
    assert phi_b == pytest.approx(math.pi)
    assert analytic_expectation(GhzSpec("+-+", -1), (0.0, phi_b, 0.0)) == pytest.approx(1.0)


def test_solve_bob_phase_random_inputs():
    rng = np.random.default_rng(9)
    specs = GhzSpec.all_canonical()
    for _ in range(1000):
        spec = specs[rng.integers(8)]
        phi_a, phi_c = rng.uniform(0, TWO_PI, size=2)
        target = 1 if rng.random() < 0.5 else -1
        phi_b = solve_bob_phase(spec, phi_a, phi_c, target)
        assert 0.0 <= phi_b < TWO_PI
        assert is_super_classical(spec, (phi_a, phi_b, phi_c)) == target
    with pytest.raises(ValueError):
        solve_bob_phase(specs[0], 0.0, 0.0, 2)


# The scalar float arithmetic the array rules replaced, kept as their
# reference: Python's float ``%``, in the same operation order.


def _ref_parity(spec, phases):
    s1, s2, s3 = spec.signs
    p1, p2, p3 = phases
    r = (s1 * p1 + s2 * p2 + s3 * p3) % TWO_PI
    if min(r, TWO_PI - r) <= SUPER_CLASSICAL_TOL:
        return spec.phase
    if abs(r - math.pi) <= SUPER_CLASSICAL_TOL:
        return -spec.phase
    return None


def _ref_bob_phase(spec, phi_a, phi_c, target):
    s1, s2, s3 = spec.signs
    t = 0.0 if target == spec.phase else math.pi
    phi_b = (s2 * (t - s1 * phi_a - s3 * phi_c)) % TWO_PI
    return 0.0 if phi_b == TWO_PI else phi_b  # float % can round up to the modulus


_QUARTER_TURNS = st.integers(-16, 16).map(lambda k: k * math.pi / 2)
#: Negative angles, angles beyond +-2 pi, exact multiples of pi/2 and
#: multiples of pi/2 nudged by about the tolerance.
_ANGLES = st.one_of(
    st.floats(-40.0, 40.0),
    _QUARTER_TURNS,
    st.tuples(_QUARTER_TURNS, st.floats(-3e-9, 3e-9)).map(sum),
)


@st.composite
def _rule_cases(draw):
    """A spec and phase triples, some with their signed sum within 1e-9 of the tolerance edge."""
    spec = draw(st.sampled_from(GhzSpec.all_canonical()))
    s1, s2, s3 = spec.signs
    triples = []
    for _ in range(draw(st.integers(1, 12))):
        p1, p2 = draw(_ANGLES), draw(_ANGLES)
        if draw(st.booleans()):
            p3 = draw(_ANGLES)
        else:
            # The third angle puts the signed sum at k*pi +- (tolerance + about 1e-9).
            edge = draw(st.sampled_from([1, -1])) * (SUPER_CLASSICAL_TOL + draw(st.floats(-1e-9, 1e-9)))
            p3 = s3 * (draw(st.integers(-6, 6)) * math.pi + edge - s1 * p1 - s2 * p2)
        triples.append((p1, p2, p3))
    return spec, triples


@settings(max_examples=400, deadline=None)
@given(_rule_cases(), st.sampled_from([1, -1]))
def test_array_rules_equal_scalar_float_arithmetic(case, target):
    spec, triples = case
    want = [_ref_parity(spec, t) for t in triples]
    got = parity_rule(spec, triples).tolist()
    assert [p or None for p in got] == want
    for triple, parity in zip(triples, want):
        if parity is None:
            assert is_super_classical(spec, triple) is None
        else:
            assert is_super_classical(spec, triple) == parity
    phi_a, _, phi_c = zip(*triples)
    want = [_ref_bob_phase(spec, a, c, target) for a, c in zip(phi_a, phi_c)]
    assert bob_phases(spec, phi_a, phi_c, target).tolist() == want
    assert [solve_bob_phase(spec, a, c, target) for a, c in zip(phi_a, phi_c)] == want


def test_array_rules_on_non_finite_angles():
    spec = GhzSpec("+-+", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            # No parity, as float % gives nan; the solve has no finite answer.
            assert is_super_classical(spec, (bad, 0.0, 0.0)) is None
            assert parity_rule(spec, [(0.0, 0.0, 0.0), (0.0, bad, 0.0)]).tolist() == [1, 0]
            with pytest.raises(ValueError, match="finite"):
                solve_bob_phase(spec, bad, 0.0, 1)
            with pytest.raises(ValueError, match="finite"):
                bob_phases(spec, [0.0, 1.0], [0.5, bad], -1)
    with pytest.raises(ValueError, match="target parity"):
        bob_phases(spec, [0.0], [0.0], 0)


def _brute_force_quality(menu, spec, tol=1e-9):
    # Independent oracle: check the signed sum against 0 and pi directly.
    hits = 0
    for triple in itertools.product(menu, repeat=3):
        s = sum(sgn * ph for sgn, ph in zip(spec.signs, triple)) % TWO_PI
        if min(s, TWO_PI - s) <= tol or abs(s - math.pi) <= tol:
            hits += 1
    return hits / 27.0


def test_menu_quality_known_values():
    spec = GhzSpec("+++", -1)
    assert menu_quality((0.0, math.pi / 2, math.pi), spec) == pytest.approx(14 / 27)
    assert menu_quality((0.0, math.pi / 3, 2 * math.pi / 3), spec) == pytest.approx(9 / 27)
    assert menu_quality((0.1, 0.2, 0.3), spec) == 0.0


def test_menu_quality_matches_brute_force():
    rng = np.random.default_rng(21)
    specs = GhzSpec.all_canonical()
    for _ in range(25):
        menu = tuple(rng.uniform(0, TWO_PI, size=3))
        spec = specs[rng.integers(8)]
        assert menu_quality(menu, spec) == pytest.approx(_brute_force_quality(menu, spec))


def test_menu_quality_permutation_invariant():
    spec = GhzSpec("++-", 1)
    menu = (0.0, math.pi / 2, math.pi)
    values = {menu_quality(perm, spec) for perm in itertools.permutations(menu)}
    assert len(values) == 1


def test_menu_validation():
    spec = GhzSpec("+++", -1)
    with pytest.raises(ValueError):
        menu_quality((0.0, 0.0, math.pi), spec)
    with pytest.raises(ValueError):
        menu_quality((0.0, math.pi), spec)
    # angles equal modulo 2*pi count as duplicates
    with pytest.raises(ValueError):
        menu_quality((0.0, TWO_PI, math.pi), spec)


def test_super_classical_triples_lists_parities():
    spec = GhzSpec("+++", -1)
    triples = super_classical_triples((0.0, math.pi / 2, math.pi), spec)
    assert len(triples) == 14
    for triple, parity in triples:
        assert is_super_classical(spec, triple) == parity
    assert sum(1 for _, p in triples if p == 1) == 7
    assert sum(1 for _, p in triples if p == -1) == 7
