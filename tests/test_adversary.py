"""Attacks, noise, detection, and the exact oracles they are checked against."""

import dataclasses
import math

import numpy as np
import pytest

from ghzkd.adversary import (
    EveKind,
    EveStrategy,
    NoRetainedRounds,
    NoiseModel,
    Verdict,
    apply_noise,
    calibrate_threshold,
    continuous_attack_rate,
    detect,
    eve_impersonate_charlie,
    eve_intercept_resend,
    exact_violation_rate,
    impersonation_view_joint,
    menu_attack_rates,
    menu_attack_summary,
    monte_carlo_violation_rate,
    mutual_information,
    pad_reuse_information,
)
from ghzkd.core import Mode, MeasurementSetting, born_probabilities, spin_setting
from ghzkd.ghz import GhzSpec, ghz_state, solve_bob_phase
from ghzkd.protocol import Method, ProtocolConfig, run_method1, run_method2

SPEC = GhzSpec("+++", -1)
MENU = (0.0, math.pi / 2, math.pi)
SC_TRIPLE = (0.0, math.pi / 2, math.pi / 2)  # sums to pi: parity +1 for SPEC


def _sigma(p, n):
    return math.sqrt(max(p * (1 - p) / n, 1e-12))


# --------------------------------------------------------------------------
# intercept-resend mechanics


def test_eve_outcome_marginal_is_uniform():
    rng = np.random.default_rng(2)
    for spec in GhzSpec.all_canonical():
        psi = ghz_state(spec)
        for _ in range(5):
            setting = spin_setting(rng.uniform(0, 2 * math.pi))
            p_plus, p_minus = born_probabilities(psi, 1, setting)
            assert p_plus == pytest.approx(0.5, abs=1e-12)
            assert p_minus == pytest.approx(0.5, abs=1e-12)


def test_resent_state_is_a_product_with_collapsed_pair():
    psi = ghz_state(SPEC)
    post, record = eve_intercept_resend(psi, 0.77, np.random.default_rng(5))
    assert record.outcome in (1, -1)
    assert record.angle == pytest.approx(0.77)
    svals = np.linalg.svd(post.reshape(2, 4), compute_uv=False)
    assert svals[0] == pytest.approx(1.0, abs=1e-12)
    assert svals[1] == pytest.approx(0.0, abs=1e-12)


def test_matching_angle_pins_the_next_measurement():
    psi = ghz_state(SPEC)
    angle = 1.9
    post, record = eve_intercept_resend(psi, angle, np.random.default_rng(8))
    p_plus, p_minus = born_probabilities(post, 1, spin_setting(angle))
    pinned = p_plus if record.outcome == 1 else p_minus
    assert pinned == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# noise channel


def test_noise_p_zero_is_bitwise_identity():
    psi = ghz_state(SPEC)
    rng = np.random.default_rng(0)
    out = apply_noise(psi, 1, NoiseModel.none(), rng)
    assert out is psi
    out = apply_noise(psi, 1, NoiseModel.depolarizing(0.0), rng)
    assert np.array_equal(out, psi)


def test_noise_model_validation():
    from ghzkd.adversary import NoiseKind

    with pytest.raises(ValueError):
        NoiseModel.depolarizing(1.5)
    with pytest.raises(ValueError):
        NoiseModel(kind=NoiseKind.NONE, p=0.3)
    for p in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            exact_violation_rate(SPEC, SC_TRIPLE, noise_p=p)


def test_noise_endpoints_exact():
    assert exact_violation_rate(SPEC, SC_TRIPLE, noise_p=0.0) == pytest.approx(0.0, abs=1e-12)
    assert exact_violation_rate(SPEC, SC_TRIPLE, noise_p=1.0) == pytest.approx(0.5, abs=1e-12)
    # a single fully scrambled qubit is already enough
    one = exact_violation_rate(SPEC, SC_TRIPLE, noise_p=1.0, noise_qubits=(1,))
    assert one == pytest.approx(0.5, abs=1e-12)


def test_noise_rate_monotone_in_p():
    rates = [exact_violation_rate(SPEC, SC_TRIPLE, noise_p=p / 10) for p in range(11)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    # two independently noisy qubits: rate (1 - (1-p)^2) / 2
    for p in (0.1, 0.3, 0.7):
        want = (1 - (1 - p) ** 2) / 2
        assert exact_violation_rate(SPEC, SC_TRIPLE, noise_p=p) == pytest.approx(want, abs=1e-12)


def test_noise_monte_carlo_matches_oracle():
    p = 0.4
    oracle = exact_violation_rate(SPEC, SC_TRIPLE, noise_p=p)
    v, n = monte_carlo_violation_rate(
        SPEC, SC_TRIPLE, noise=NoiseModel.depolarizing(p), n_rounds=4000, seed=17
    )
    assert abs(v / n - oracle) <= 4 * _sigma(oracle, n)


# --------------------------------------------------------------------------
# exact intercept oracle


def test_oracle_requires_super_classical_phases():
    with pytest.raises(ValueError, match="super-classical"):
        exact_violation_rate(SPEC, (0.3, 0.0, 0.0), eve_angle=1.0)


def test_oracle_half_rate_at_quarter_turn():
    p = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0] + math.pi / 2)
    assert p == pytest.approx(0.5, abs=1e-12)


def test_oracle_even_in_angle_offset():
    rng = np.random.default_rng(3)
    for _ in range(10):
        delta = rng.uniform(0, math.pi)
        plus = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0] + delta)
        minus = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0] - delta)
        assert plus == pytest.approx(minus, abs=1e-12)


def test_oracle_invariant_under_common_shift():
    # Shift the attacked particle's angle and Eve together, compensating on
    # particle b so the triple stays super-classical: only differences matter.
    delta = 0.631
    base = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0] + delta)
    for offset in (0.4, 1.3, 2.9):
        phases = (SC_TRIPLE[0] + offset, SC_TRIPLE[1] - offset, SC_TRIPLE[2])
        shifted = exact_violation_rate(SPEC, phases, eve_angle=phases[0] + delta)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_oracle_monte_carlo_agreement_on_offset_grid():
    for k, delta in enumerate((0.0, math.pi / 8, math.pi / 4, math.pi / 2)):
        angle = SC_TRIPLE[0] + delta
        oracle = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=angle)
        v, n = monte_carlo_violation_rate(SPEC, SC_TRIPLE, eve_angle=angle, n_rounds=3000, seed=40 + k)
        assert abs(v / n - oracle) <= 4 * _sigma(oracle, n)


def test_same_angle_report_is_oracle_driven():
    # intercepting in the measured basis leaves the statistics untouched
    for mode in Mode:
        rate = exact_violation_rate(SPEC, SC_TRIPLE, mode, eve_angle=SC_TRIPLE[0])
        assert rate == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_closed_form_law():
    # Differential check of the branch enumeration against the closed form
    # (1 - (1-p)^k cos^2(e - phi_a)) / 2, k noisy qubits, cos^2 = 1 without
    # Eve.  The law lives only here: the library keeps one oracle.
    rng = np.random.default_rng(2308)
    subsets = ((), (1,), (2,), (3,), (1, 3), (1, 2), (2, 3), (1, 2, 3))
    worst = 0.0
    for case in range(400):
        spec = GhzSpec.all_canonical()[case % 8]
        mode = (Mode.SPIN, Mode.POLARIZATION)[(case // 8) % 2]
        phi_a, phi_c = rng.uniform(0, 2 * math.pi, size=2)
        phases = (phi_a, solve_bob_phase(spec, phi_a, phi_c, int(rng.choice((1, -1)))), phi_c)
        p = float(rng.choice((0.0, 1.0, rng.uniform())))
        eve = None if case % 3 == 0 else float(rng.uniform(0, 2 * math.pi))
        qubits = subsets[rng.integers(len(subsets))]
        overlap = 1.0 if eve is None else math.cos(eve - phi_a) ** 2
        law = (1 - (1 - p) ** len(qubits) * overlap) / 2
        got = exact_violation_rate(spec, phases, mode, eve_angle=eve, noise_p=p, noise_qubits=qubits)
        worst = max(worst, abs(got - law))
    assert worst <= 1e-12


def test_menu_attack_rates_match_per_triple_averages():
    rates = menu_attack_rates(SPEC, MENU, guess_from_menu=True)
    assert rates.retention == pytest.approx(14 / 27)
    # class rates are plain averages of the per-triple guess averages
    summary = menu_attack_summary(SPEC, MENU)
    per_triple = summary["by_triple"]
    assert rates.overall == pytest.approx(sum(per_triple.values()) / len(per_triple))
    assert summary["joint_average"] == pytest.approx(rates.overall)
    assert rates.by_class[1] == pytest.approx(3 / 14, abs=1e-12)
    assert rates.by_class[-1] == pytest.approx(3 / 14, abs=1e-12)


# --------------------------------------------------------------------------
# detection


def test_detect_clean_and_thresholds():
    result, transcript = run_method1(
        ProtocolConfig(method=Method.METHOD1, menu=MENU, key_length=32, seed=2)
    )
    report = detect(transcript, threshold=0.0)
    assert report.violations == 0
    assert report.verdict is Verdict.CLEAN
    assert report.class_counts[1][0] + report.class_counts[-1][0] == 32
    with pytest.raises(ValueError):
        detect(transcript, threshold=-0.1)
    with pytest.raises(ValueError):
        detect(transcript, threshold=0.0, parity_class=0)


def test_detect_requires_rounds_in_designated_class():
    cfg = ProtocolConfig(method=Method.METHOD2, key_length=8, seed=1, bob_parity_preference=-1)
    _, transcript = run_method2(cfg)
    with pytest.raises(NoRetainedRounds):
        detect(transcript, threshold=0.0, parity_class=1)


def test_method1_session_rate_matches_menu_oracle():
    cfg = ProtocolConfig(
        method=Method.METHOD1,
        menu=MENU,
        key_length=4000,
        seed=8,
        eve=EveStrategy.intercept_resend_a(),
        threshold=0.05,
    )
    result, _ = run_method1(cfg)
    oracle = menu_attack_rates(SPEC, MENU, guess_from_menu=True).by_class[1]
    report = result.detection
    assert report.parity_class == 1
    assert abs(report.rate - oracle) <= 4 * _sigma(oracle, report.rounds_checked)
    assert report.verdict is Verdict.EVE_DETECTED


def test_method2_session_rate_matches_continuous_oracle():
    angle = 1.234
    cfg = ProtocolConfig(
        method=Method.METHOD2,
        key_length=10_000,
        seed=14,
        eve=EveStrategy.intercept_resend_a(angle),
        threshold=0.05,
    )
    result, _ = run_method2(cfg)
    oracle = continuous_attack_rate(SPEC, 1, eve_angle=angle)
    assert oracle == pytest.approx(0.25, abs=1e-12)  # mean of sin^2/2 over the announced angle
    report = result.detection
    assert abs(report.rate - oracle) <= 4 * _sigma(oracle, report.rounds_checked)
    assert report.verdict is Verdict.EVE_DETECTED


def test_impersonation_runs_are_indistinguishable_from_honest():
    cfg = ProtocolConfig(
        method=Method.METHOD2, key_length=48, seed=19, eve=EveStrategy.impersonate_charlie()
    )
    result, transcript = run_method2(cfg)
    assert result.key_recovered == result.key_sent
    assert result.detection.verdict is Verdict.CLEAN
    views = eve_impersonate_charlie(transcript)
    assert len(views) == 48
    assert all(set(v) == {"phi_a", "phi_c", "d_bit", "c_bit"} for v in views)


# --------------------------------------------------------------------------
# key information


def _impersonation_config(method, preference=1):
    return ProtocolConfig(
        method=method,
        menu=MENU if method is Method.METHOD1 else None,
        key_length=1,
        seed=1,
        bob_parity_preference=preference,
        eve=EveStrategy.impersonate_charlie(),
    )


def _key_information(config, phi_a=None, phi_c=None):
    return mutual_information(impersonation_view_joint(config, phi_a, phi_c))


def test_impersonation_key_information_is_zero():
    for method in (Method.METHOD1, Method.METHOD2):
        for preference in (1, -1):
            info = _key_information(_impersonation_config(method, preference))
            assert abs(info) <= 1e-12


def test_impersonation_key_information_fixed_angles_and_modes():
    cfg = _impersonation_config(Method.METHOD2)
    assert abs(_key_information(cfg, phi_a=0.83, phi_c=2.1)) <= 1e-12
    pol = ProtocolConfig(
        method=Method.METHOD2,
        mode=Mode.POLARIZATION,
        key_length=1,
        seed=1,
        eve=EveStrategy.impersonate_charlie(),
    )
    assert abs(_key_information(pol)) <= 1e-12


def test_eve_posterior_is_uniform_per_view():
    joint = impersonation_view_joint(_impersonation_config(Method.METHOD1))
    views = {}
    for (view, key_bit), p in joint.items():
        views.setdefault(view, [0.0, 0.0])[key_bit] += p
    for view, (p0, p1) in views.items():
        if p0 + p1 > 1e-12:
            assert p1 / (p0 + p1) == pytest.approx(0.5, abs=1e-10)


def test_leaking_the_sender_bit_yields_one_full_bit():
    joint = impersonation_view_joint(_impersonation_config(Method.METHOD2), leak_alice_bit=True)
    assert mutual_information(joint) == pytest.approx(1.0, abs=1e-12)


def test_pad_reuse_information_is_zero():
    s1 = tuple(spin_setting(x) for x in (0.0, math.pi / 2, math.pi / 2))
    s2 = tuple(spin_setting(x) for x in (0.4, 1.1, 2.8))
    assert abs(pad_reuse_information(GhzSpec("+++", -1), s1, GhzSpec("++-", -1), s2)) <= 1e-12
    assert abs(pad_reuse_information(GhzSpec("+-+", 1), s2, GhzSpec("+--", 1), s1)) <= 1e-12


def test_mutual_information_helper():
    # independent fair bits
    joint = {((v,), k): 0.25 for v in (0, 1) for k in (0, 1)}
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-15)
    # fully correlated bits
    joint = {((0,), 0): 0.5, ((1,), 1): 0.5}
    assert mutual_information(joint) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mutual_information({((0,), 0): 0.4})


# --------------------------------------------------------------------------
# threshold calibration


def test_calibrated_threshold_separates_noise_from_eve():
    p = 0.05
    cfg = ProtocolConfig(
        method=Method.METHOD2,
        key_length=2000,
        seed=27,
        noise=NoiseModel.depolarizing(p),
        eve=EveStrategy.intercept_resend_a(math.pi / 3),
    )
    threshold = calibrate_threshold(cfg)
    r0 = (1 - (1 - p) ** 2) / 2
    r1 = continuous_attack_rate(SPEC, 1, eve_angle=math.pi / 3, noise_p=p)
    assert r0 < threshold < r1

    noisy_only = dataclasses.replace(cfg, eve=EveStrategy.none(), threshold=threshold, seed=61)
    result, _ = run_method2(noisy_only)
    assert result.detection.verdict is Verdict.CLEAN

    attacked = dataclasses.replace(cfg, threshold=threshold, seed=62)
    result, _ = run_method2(attacked)
    assert result.detection.verdict is Verdict.EVE_DETECTED


def test_calibrate_threshold_is_the_exact_midpoint():
    p = 0.07
    noise = NoiseModel.depolarizing(p)
    m1 = ProtocolConfig(method=Method.METHOD1, menu=MENU, key_length=8, noise=noise)
    m2 = ProtocolConfig(method=Method.METHOD2, key_length=8, noise=noise)
    cases = []
    for eve in (EveStrategy.none(), EveStrategy.intercept_resend_a(), EveStrategy.intercept_resend_a(0.4)):
        for parity in (1, -1):
            cfg = dataclasses.replace(m1, eve=eve, detection_parity=parity)
            angle = eve.fixed_angle
            attacked = menu_attack_rates(SPEC, MENU, eve_angle=angle, guess_from_menu=angle is None, noise_p=p)
            clean = menu_attack_rates(SPEC, MENU, noise_p=p)
            cases.append((cfg, clean.by_class[parity], attacked.by_class[parity]))
    for eve in (EveStrategy.none(), EveStrategy.intercept_resend_a(2.2)):
        for preference in (1, -1):
            cfg = dataclasses.replace(m2, eve=eve, bob_parity_preference=preference)
            angle = eve.fixed_angle if eve.fixed_angle is not None else 0.0
            r0 = continuous_attack_rate(SPEC, preference, noise_p=p)
            r1 = continuous_attack_rate(SPEC, preference, eve_angle=angle, noise_p=p)
            cases.append((cfg, r0, r1))
    for cfg, r0, r1 in cases:
        assert r0 == pytest.approx((1 - (1 - p) ** 2) / 2, abs=1e-12)
        assert calibrate_threshold(cfg) == pytest.approx(0.5 * (r0 + r1), abs=1e-12)


def test_calibrate_threshold_method1_with_menu():
    cfg = ProtocolConfig(
        method=Method.METHOD1,
        menu=MENU,
        key_length=64,
        seed=5,
        noise=NoiseModel.depolarizing(0.02),
        eve=EveStrategy.intercept_resend_a(),
    )
    threshold = calibrate_threshold(cfg)
    r1 = menu_attack_rates(SPEC, MENU, guess_from_menu=True, noise_p=0.02).by_class[1]
    assert 0.0 < threshold < r1


def test_eve_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy(EveKind.INTERCEPT_RESEND_A, math.nan)
    s = EveStrategy.intercept_resend_a(-math.pi / 2)
    assert s.fixed_angle == pytest.approx(3 * math.pi / 2)  # normalized
    assert EveStrategy.none().kind is EveKind.NONE
