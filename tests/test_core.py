"""Engine-level tests: observables, tensor products, expectation, measurement."""

import math

import numpy as np
import pytest

from ghzkd.core import (
    Mode,
    MeasurementSetting,
    OUTCOME_TRIPLES,
    _check_states,
    born_probabilities,
    eigenbases,
    eigenbasis,
    expectation,
    expectation_of_operator,
    joint_outcome_distribution,
    make_retarded_analyzer,
    make_spin_observable,
    measure_single,
    normalize_angle,
    normalize_angles,
    observable_for,
    observables,
    polarization_analyzer,
    project_single,
    sample_joint,
    spin_setting,
    tensor3,
    wave_retarder,
)
from ghzkd.ghz import GhzSpec, ghz_state

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_spin_observable_closed_form():
    assert np.allclose(make_spin_observable(0.0, 1.23), Z, atol=1e-15)
    assert np.allclose(make_spin_observable(math.pi / 2, 0.0), X, atol=1e-15)
    expected = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(make_spin_observable(math.pi / 2, math.pi / 2), expected, atol=1e-15)


def test_retarded_analyzer_closed_form():
    assert np.allclose(make_retarded_analyzer(math.pi / 4, 0.0), X, atol=1e-15)
    delta = 0.7321
    expected = np.array([[0, np.exp(1j * delta)], [np.exp(-1j * delta), 0]])
    assert np.allclose(make_retarded_analyzer(math.pi / 4, delta), expected, atol=1e-15)


def test_retarded_analyzer_matches_explicit_product():
    # Independent oracle: multiply retarder^dagger @ analyzer @ retarder entrywise.
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi)
        delta = rng.uniform(0, 2 * math.pi)
        w = wave_retarder(delta)
        t = polarization_analyzer(theta)
        assert np.allclose(w.conj().T @ t @ w, make_retarded_analyzer(theta, delta), atol=1e-12)


def test_observable_for_dispatch():
    assert np.allclose(observable_for(spin_setting(0.0)), X, atol=1e-15)
    assert np.allclose(observable_for(MeasurementSetting(Mode.POLARIZATION, 0.0)), X, atol=1e-15)
    expected = np.array([[0, -1], [-1, 0]], dtype=complex)
    assert np.allclose(observable_for(spin_setting(math.pi)), expected, atol=1e-12)


def test_observables_hermitian_and_involutive():
    rng = np.random.default_rng(5)
    for _ in range(500):
        for mode in Mode:
            setting = MeasurementSetting(mode, rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            op = observable_for(setting)
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12
            assert np.max(np.abs(op @ op - I2)) <= 1e-12


def test_setting_normalizes_phase():
    s = spin_setting(-math.pi / 2)
    assert 0.0 <= s.phase < 2 * math.pi
    assert s.phase == pytest.approx(3 * math.pi / 2)
    assert s.polar == pytest.approx(math.pi / 2)
    assert MeasurementSetting(Mode.POLARIZATION, 0.0).polar == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        spin_setting(float("nan"))


def test_normalized_angles_stay_below_two_pi():
    # The float % rounds a tiny negative angle up to the modulus itself.
    for x in (-1e-17, -4.4e-16):
        assert x % (2 * math.pi) == 2 * math.pi
        assert normalize_angle(x) == 0.0
        assert spin_setting(x).phase == 0.0
    got = normalize_angles([-1e-17, -4.4e-16, -1.0, 7.0])
    assert got.tolist() == [0.0, 0.0, -1.0 % (2 * math.pi), 7.0 % (2 * math.pi)]
    assert ((0.0 <= got) & (got < 2 * math.pi)).all()


def test_eigenbasis_convention_and_eigenvalues():
    rng = np.random.default_rng(17)
    for _ in range(200):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0, 2 * math.pi)
        op = make_spin_observable(theta, phi)
        chi_p, chi_m = eigenbasis(op)
        expected_p = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        assert np.allclose(chi_p, expected_p, atol=1e-12)
        assert np.allclose(op @ chi_p, chi_p, atol=1e-12)
        assert np.allclose(op @ chi_m, -chi_m, atol=1e-12)
        assert abs(np.vdot(chi_p, chi_m)) <= 1e-12
        # phase convention: leading component real and non-negative
        assert chi_m[0].imag == pytest.approx(0.0, abs=1e-12)
        assert chi_m[0].real >= -1e-15


def test_eigenbasis_poles():
    chi_p, chi_m = eigenbasis(make_spin_observable(0.0, 0.3))
    assert np.allclose(chi_p, [1, 0], atol=1e-15)
    assert np.allclose(chi_m, [0, 1], atol=1e-15)
    chi_p, chi_m = eigenbasis(make_spin_observable(math.pi, 0.3))
    assert np.allclose(chi_p, [0, 1], atol=1e-12)
    assert np.allclose(chi_m, [1, 0], atol=1e-12)


def _ref_fix_phase(v):
    if abs(v[0]) > 1e-15:
        w = v * (v[0].conjugate() / abs(v[0]))
        w[0] = abs(v[0])
    else:
        w = v * (v[1].conjugate() / abs(v[1]))
        w[0] = 0.0
        w[1] = abs(v[1])
    return w


def _ref_eigenbasis(op):
    """The eigenbasis formula and phase rule one observable at a time, in scalar arithmetic."""
    a = float(op[0, 0].real)
    b = complex(op[0, 1])
    if a >= 0.0:
        n = math.sqrt(2.0 * (1.0 + a))
        chi_p = np.array([1.0 + a, b.conjugate()], dtype=complex) / n
        chi_m = np.array([-b, 1.0 + a], dtype=complex) / n
    else:
        n = math.sqrt(2.0 * (1.0 - a))
        chi_p = np.array([b, 1.0 - a], dtype=complex) / n
        chi_m = np.array([1.0 - a, -b.conjugate()], dtype=complex) / n
    return _ref_fix_phase(chi_p), _ref_fix_phase(chi_m)


def test_eigenbases_equal_the_scalar_formula_bit_for_bit():
    # Phases at the modes' default polar angles, random polar angles, and
    # both poles, so both branches of the formula and of the phase rule run.
    rng = np.random.default_rng(41)
    ops = [op for mode in Mode for op in observables(mode, rng.uniform(0, 2 * math.pi, 2000))]
    for t, p in rng.uniform(0, [math.pi, 2 * math.pi], (1000, 2)):
        ops += [make_spin_observable(t, p), make_retarded_analyzer(t, p)]
    for p in rng.uniform(0, 2 * math.pi, 50):
        ops += [make_spin_observable(0.0, p), make_spin_observable(math.pi, p), make_retarded_analyzer(math.pi / 2, p)]
    ops = np.array(ops)
    mismatches = 0
    for basis, op in zip(eigenbases(ops), ops):
        want = _ref_eigenbasis(op)
        got = eigenbasis(op)
        mismatches += not (np.array_equal(basis, np.column_stack(want)) and all(map(np.array_equal, got, want)))
    assert mismatches == 0


def test_eigenbasis_rejects_non_involutions():
    # diag(sqrt(1 + r), -1) squares to diag(1 + r, 1): its O @ O - I residual is r.
    def off_by(residual):
        return np.diag([math.sqrt(1.0 + residual), -1.0]).astype(complex)

    for op in (np.array([[1.0, 1.0], [1.0, 1.0]]), off_by(1e-11)):
        with pytest.raises(ValueError, match="involutive"):
            eigenbasis(op)
        with pytest.raises(ValueError, match="involutive"):
            eigenbases(np.array([observable_for(spin_setting(0.3)), op]))
    eigenbasis(off_by(1e-13))
    eigenbases(np.array([observable_for(spin_setting(0.3)), off_by(1e-13)]))
    with pytest.raises(ValueError, match="Hermitian"):
        eigenbasis(np.array([[1.0, 1.0], [0.0, -1.0]]))
    for op in ([[math.nan, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1j * math.nan]]):
        with pytest.raises(ValueError):
            eigenbasis(np.array(op))
    with pytest.raises(ValueError, match="2x2"):
        eigenbasis(np.eye(3))


def test_tensor3():
    assert np.allclose(tensor3(I2, I2, I2), np.eye(8), atol=1e-15)
    assert np.allclose(tensor3(Z, I2, I2), np.diag([1, 1, 1, 1, -1, -1, -1, -1]), atol=1e-15)
    # X on every particle flips every index bit: basis k maps to 7 - k.
    xxx = tensor3(X, X, X)
    for k in range(8):
        e = np.zeros(8)
        e[k] = 1.0
        out = xxx @ e
        assert out[7 - k] == pytest.approx(1.0)
        assert np.sum(np.abs(out)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tensor3(np.eye(3), I2, I2)


def test_expectation_examples():
    psi = ghz_state(GhzSpec("+++", -1))
    zeros = [spin_setting(0.0)] * 3
    assert expectation(psi, zeros) == pytest.approx(-1.0, abs=1e-12)
    thirds = [spin_setting(math.pi / 3)] * 3
    assert expectation(psi, thirds) == pytest.approx(1.0, abs=1e-12)
    # polar angle 0 measures populations; GHZ states balance them exactly
    poles = [MeasurementSetting(Mode.SPIN, 0.7, polar=0.0)] * 3
    for spec in GhzSpec.all_canonical():
        assert expectation(ghz_state(spec), poles) == pytest.approx(0.0, abs=1e-12)


def test_expectation_rejects_unnormalized():
    bad = np.ones(8, dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        expectation(bad, [spin_setting(0.0)] * 3)


def test_expectation_of_operator_flags_imaginary_residue():
    psi = ghz_state(GhzSpec("+++", -1))
    crooked = np.zeros((8, 8), dtype=complex)
    crooked[0, 7] = 1j  # not Hermitian: <psi|O|psi> lands on the imaginary axis
    with pytest.raises(ValueError, match="imaginary"):
        expectation_of_operator(psi, crooked)


def _random_state(rng):
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    return v / np.linalg.norm(v)


def _random_settings(rng, equatorial=False):
    out = []
    for _ in range(3):
        mode = Mode.SPIN if rng.random() < 0.5 else Mode.POLARIZATION
        polar = None if equatorial else rng.uniform(0, math.pi)
        out.append(MeasurementSetting(mode, rng.uniform(0, 2 * math.pi), polar))
    return tuple(out)


def test_joint_distribution_collapse_cases():
    psi = ghz_state(GhzSpec("+++", -1))
    # phases summing to pi: expectation +1, even-parity outcomes only
    plus = [spin_setting(x) for x in (math.pi / 2, math.pi / 4, math.pi / 4)]
    dist = joint_outcome_distribution(psi, plus)
    for triple, p in dist.items():
        want = 0.25 if triple[0] * triple[1] * triple[2] == 1 else 0.0
        assert p == pytest.approx(want, abs=1e-12)
    # zero phases: expectation -1, odd-parity outcomes only
    dist = joint_outcome_distribution(psi, [spin_setting(0.0)] * 3)
    for triple, p in dist.items():
        want = 0.25 if triple[0] * triple[1] * triple[2] == -1 else 0.0
        assert p == pytest.approx(want, abs=1e-12)


def test_joint_distribution_eigenstate():
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    poles = [MeasurementSetting(Mode.SPIN, 0.0, polar=0.0)] * 3
    dist = joint_outcome_distribution(e0, poles)
    assert dist[(1, 1, 1)] == pytest.approx(1.0, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_properties_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        state = _random_state(rng)
        settings = _random_settings(rng)
        dist = joint_outcome_distribution(state, settings)
        assert all(p >= -1e-14 for p in dist.values())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        # second, independent route to the expectation value
        via_probs = sum(t[0] * t[1] * t[2] * p for t, p in dist.items())
        assert expectation(state, settings) == pytest.approx(via_probs, abs=1e-10)


def test_batched_kernel_matches_the_scalar_engine():
    rng = np.random.default_rng(31)
    for mode in Mode:
        phases = np.concatenate([rng.uniform(0, 2 * math.pi, 60), np.arange(8) * math.pi / 4])
        assert np.array_equal(
            observables(mode, phases), [observable_for(MeasurementSetting(mode, p)) for p in phases]
        )
    # Any polar angle, poles included, so both branches of the formula and of
    # the phase rule run.
    ops = [make_spin_observable(t, p) for t, p in rng.uniform(0, [math.pi, 2 * math.pi], (60, 2))]
    ops += [make_spin_observable(t, 0.3) for t in (0.0, math.pi)]
    ops += [make_retarded_analyzer(t, d) for t, d in rng.uniform(0, [math.pi, 2 * math.pi], (60, 2))]
    for basis, op in zip(eigenbases(np.array(ops)), ops):
        assert np.array_equal(basis, np.column_stack(_ref_eigenbasis(op)))
    with pytest.raises(ValueError, match="involutive"):
        eigenbases(np.array([ops[0], [[1.0, 1.0], [1.0, 1.0]]]))


def test_batched_state_check_rejects_any_bad_row():
    states = np.array([_random_state(np.random.default_rng(k)) for k in range(3)])
    _check_states(states)
    with pytest.raises(ValueError, match="not normalized"):
        _check_states(states * [[1.0], [1.0], [1.1]])
    states[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _check_states(states)


def test_sample_joint_deterministic_cases():
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    poles = [MeasurementSetting(Mode.SPIN, 0.0, polar=0.0)] * 3
    for seed in range(5):
        assert sample_joint(e0, poles, np.random.default_rng(seed)) == (1, 1, 1)
    psi = ghz_state(GhzSpec("++-", -1))
    settings = _random_settings(np.random.default_rng(1))
    a = [sample_joint(psi, settings, np.random.default_rng(99)) for _ in range(50)]
    b = [sample_joint(psi, settings, np.random.default_rng(99)) for _ in range(50)]
    assert a == b


def test_sample_joint_frequencies_match_distribution():
    psi = ghz_state(GhzSpec("+-+", 1))
    settings = tuple(spin_setting(x) for x in (0.3, 1.1, 2.5))
    dist = joint_outcome_distribution(psi, settings)
    n = 100_000
    rng = np.random.default_rng(42)
    counts = {t: 0 for t in OUTCOME_TRIPLES}
    for _ in range(n):
        counts[sample_joint(psi, settings, rng)] += 1
    for t, p in dist.items():
        sigma = math.sqrt(max(p * (1 - p) / n, 1e-12))
        assert abs(counts[t] / n - p) <= 4 * sigma


def test_measure_single_on_ghz():
    psi = ghz_state(GhzSpec("+++", -1))
    setting = spin_setting(1.234)
    p_plus, p_minus = born_probabilities(psi, 1, setting)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert p_minus == pytest.approx(0.5, abs=1e-12)
    outcome, post = measure_single(psi, 1, setting, np.random.default_rng(3))
    assert outcome in (1, -1)
    assert np.sum(np.abs(post) ** 2) == pytest.approx(1.0, abs=1e-12)
    # measured particle factors out of the rest
    svals = np.linalg.svd(post.reshape(2, 4), compute_uv=False)
    assert svals[1] == pytest.approx(0.0, abs=1e-12)
    # repeating the measurement cannot change the answer
    again_plus, again_minus = born_probabilities(post, 1, setting)
    assert (again_plus if outcome == 1 else again_minus) == pytest.approx(1.0, abs=1e-12)


def test_measure_single_eigenstate_passthrough():
    e5 = np.zeros(8, dtype=complex)
    e5[5] = 1.0  # |-+-> in the pole basis
    setting = MeasurementSetting(Mode.SPIN, 0.0, polar=0.0)
    outcome, post = measure_single(e5, 1, setting, np.random.default_rng(0))
    assert outcome == -1
    assert np.allclose(post, e5, atol=1e-12)


def test_project_single_zero_branch():
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    setting = MeasurementSetting(Mode.SPIN, 0.0, polar=0.0)
    prob, post = project_single(e0, 1, setting, -1)
    assert prob == 0.0
    assert post is None


def test_measure_single_marginals_match_joint_distribution():
    rng = np.random.default_rng(31)
    for _ in range(25):
        state = _random_state(rng)
        settings = _random_settings(rng)
        for qubit in (1, 2, 3):
            p_plus, p_minus = born_probabilities(state, qubit, settings[qubit - 1])
            dist = joint_outcome_distribution(state, settings)
            marg = sum(p for t, p in dist.items() if t[qubit - 1] == 1)
            assert p_plus == pytest.approx(marg, abs=1e-10)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_invalid_qubit_index():
    psi = ghz_state(GhzSpec("+++", -1))
    with pytest.raises(ValueError):
        born_probabilities(psi, 0, spin_setting(0.0))
    with pytest.raises(ValueError):
        measure_single(psi, 4, spin_setting(0.0), np.random.default_rng(0))
