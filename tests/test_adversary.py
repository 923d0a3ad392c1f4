"""Attacks, noise, detection, and the exact oracles they are checked against."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzkd.adversary import (
    EveKind,
    EveStrategy,
    NoRetainedRounds,
    NoiseModel,
    Verdict,
    _violation_rates,
    apply_noise,
    calibrate_threshold,
    continuous_attack_rate,
    detect,
    eve_intercept_resend,
    exact_violation_rate,
    impersonation_view_joint,
    menu_attack_rates,
    menu_attack_summary,
    mutual_information,
    pad_reuse_information,
)
from ghzkd.core import (
    PRODUCT_BY_INDEX,
    Mode,
    MeasurementSetting,
    _joint_probs,
    born_probabilities,
    eigenbasis,
    observable_for,
    spin_setting,
)
from ghzkd.ghz import GhzSpec, ghz_state, is_super_classical, solve_bob_phase, super_classical_triples
from ghzkd.protocol import Method, ProtocolConfig, monte_carlo_violation_rate, run_method1, run_method2

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
    assert NoiseModel.none() == NoiseModel.depolarizing(0.0) == NoiseModel()
    for p in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseModel.depolarizing(p)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            exact_violation_rate(SPEC, SC_TRIPLE, noise_p=p)


def test_noise_endpoints_exact():
    assert exact_violation_rate(SPEC, SC_TRIPLE, noise_p=0.0) == pytest.approx(0.0, abs=1e-12)
    assert exact_violation_rate(SPEC, SC_TRIPLE, noise_p=1.0) == pytest.approx(0.5, abs=1e-12)


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


#: One-sided tail probability of a 4-sigma normal deviation.
_FOUR_SIGMA_TAIL = 0.5 * math.erfc(4.0 / math.sqrt(2.0))


def _within_four_sigma(violations, n, rate):
    """Whether ``violations`` of ``n`` Binomial(n, rate) rounds lies within the 4-sigma band.

    The band is set by exact binomial tails at the one-sided 4-sigma normal
    tail probability, which the normal approximation overstates for small
    rate * n: at rate 0 no violation is within it.
    """
    r = min(max(rate, 0.0), 1.0)
    pmf = [math.comb(n, k) * r**k * (1.0 - r) ** (n - k) for k in range(n + 1)]
    return min(sum(pmf[: violations + 1]), sum(pmf[violations:])) >= _FOUR_SIGMA_TAIL


@st.composite
def _monte_carlo_cases(draw):
    spec = draw(st.sampled_from(GhzSpec.all_canonical()))
    if draw(st.booleans()):
        phases = draw(st.sampled_from([t for t, _ in super_classical_triples(MENU, spec)]))
    else:
        phi_a, phi_c = draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
        phases = (phi_a, solve_bob_phase(spec, phi_a, phi_c, draw(st.sampled_from([1, -1]))), phi_c)
    return {
        "spec": spec,
        "phases": phases,
        "mode": draw(st.sampled_from(list(Mode))),
        "eve_angle": draw(st.none() | st.floats(-7.0, 7.0)),
        "noise_p": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n_rounds": draw(st.integers(50, 300)),
    }


# A correct estimator still leaves the band at a small rate per example, so
# the examples are drawn the same way on every run.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_monte_carlo_cases())
def test_monte_carlo_within_four_sigma_of_oracle(case):
    p = case["noise_p"]
    oracle = exact_violation_rate(case["spec"], case["phases"], case["mode"], eve_angle=case["eve_angle"], noise_p=p)
    violations, n = monte_carlo_violation_rate(
        case["spec"],
        case["phases"],
        case["mode"],
        eve_angle=case["eve_angle"],
        noise=NoiseModel.depolarizing(p),
        n_rounds=case["n_rounds"],
        seed=case["seed"],
    )
    assert n == case["n_rounds"]
    assert _within_four_sigma(violations, n, oracle), (violations, n, oracle)


def test_sweep_runs_no_scalar_round_engine(monkeypatch, capsys):
    from ghzkd import adversary, protocol
    from ghzkd.cli import main

    def scalar_round(*args, **kwargs):
        raise AssertionError("sweep played a round through the scalar engine")

    for module in (adversary, protocol):
        for name in ("apply_noise", "eve_intercept_resend", "sample_joint"):
            monkeypatch.setattr(module, name, scalar_round)
    menu = ["--menu", "0,pi/2,pi"]
    for argv in (["--variable", "eve-angle", "--noise-p", "0.1", *menu], ["--variable", "noise-p"]):
        assert main(["sweep", *argv, "--seed", "1", "--mc-rounds", "50"]) == 0
    assert capsys.readouterr().out.count("parameter,oracle_rate,monte_carlo_rate,std_error") == 2


def test_same_angle_report_is_oracle_driven():
    # intercepting in the measured basis leaves the statistics untouched
    for mode in Mode:
        rate = exact_violation_rate(SPEC, SC_TRIPLE, mode, eve_angle=SC_TRIPLE[0])
        assert rate == pytest.approx(0.0, abs=1e-12)


# The one-state-at-a-time enumeration the batched kernel replaced, kept as
# its reference: every noise branch state by a tensordot on one qubit,
# Eve's projection of particle a per outcome, then the joint distribution.

_REF_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _ref_apply_1q(state, op, qubit):
    ax = qubit - 1
    t = state.reshape(2, 2, 2)
    return np.moveaxis(np.tensordot(op, t, axes=([1], [ax])), 0, ax).reshape(8)


def _ref_project_single(state, qubit, setting, outcome):
    chi_p, chi_m = eigenbasis(observable_for(setting))
    chi = chi_p if outcome == 1 else chi_m
    ax = qubit - 1
    amp = np.tensordot(chi.conj(), state.reshape(2, 2, 2), axes=([0], [ax]))
    prob = float(np.sum(np.abs(amp) ** 2))
    if prob <= 1e-300:
        return 0.0, None
    post = np.moveaxis(np.tensordot(chi, amp, axes=0), 0, ax).reshape(8)
    return prob, post / math.sqrt(prob)


def _ref_violation_mass(state, settings, parity):
    probs = _joint_probs(state, settings)
    return float(probs[PRODUCT_BY_INDEX != parity].sum())


def _ref_violation_rate(spec, phases, mode, eve_angle, noise_p):
    parity = is_super_classical(spec, phases)
    settings = tuple(MeasurementSetting(mode, p) for p in phases)
    branches = ((1.0, None),)
    if noise_p != 0.0:
        branches = ((1.0 - 0.75 * noise_p, None),) + tuple((0.25 * noise_p, op) for op in _REF_PAULIS)
    total = 0.0
    for combo in itertools.product(branches, branches):
        weight = 1.0
        state = ghz_state(spec)
        for (w, op), qubit in zip(combo, (1, 3)):
            weight *= w
            if op is not None:
                state = _ref_apply_1q(state, op, qubit)
        if eve_angle is None:
            total += weight * _ref_violation_mass(state, settings, parity)
            continue
        for eve_outcome in (1, -1):
            p_branch, post = _ref_project_single(state, 1, MeasurementSetting(mode, eve_angle), eve_outcome)
            if post is None:
                continue
            total += weight * p_branch * _ref_violation_mass(post, settings, parity)
    return total


def test_batched_oracle_equals_scalar_enumeration():
    # Exact equality, not a tolerance: the calibrated threshold in the golden
    # CLI outputs is pinned to the last bit.  The cases cycle through every
    # (Eve layout, triples) combination; grid triples are 64 announced angles
    # with a random parity each.
    rng = np.random.default_rng(6)
    layouts = list(itertools.product(("none", "shared", "each"), ("menu", "grid")))
    cases = itertools.product(GhzSpec.all_canonical(), Mode, (0.0, 0.05, 0.3, 1.0, None))
    mismatches, compared = [], 0
    for case, (spec, mode, p) in enumerate(cases):
        p = float(rng.uniform()) if p is None else p
        eve, kind = layouts[case % len(layouts)]
        if kind == "grid":
            triples = []
            for a, c in rng.uniform(-7, 7, size=(64, 2)):
                triples.append((a, solve_bob_phase(spec, a, c, int(rng.choice((1, -1)))), c))
        else:
            triples = [t for t, _ in super_classical_triples((0.0, math.pi / 2, math.pi), spec)]
        if eve == "none":
            eve_angles = None
        elif eve == "shared":
            eve_angles = [float(rng.uniform(-7, 7))] * len(triples)
        else:
            eve_angles = [float(a) for a in rng.uniform(-7, 7, size=len(triples))]
        got = _violation_rates(spec, triples, mode, eve_angles, p)
        for i, triple in enumerate(triples):
            eve_angle = None if eve_angles is None else eve_angles[i]
            want = _ref_violation_rate(spec, triple, mode, eve_angle, p)
            compared += 1
            if type(got[i]) is not float or got[i] != want:
                mismatches.append((str(spec), mode.value, p, triple, eve_angle, got[i], want))
    assert compared > 3000
    assert mismatches == []


def test_oracle_matches_closed_form_law():
    # Differential check of the branch enumeration against the closed form
    # (1 - (1-p)^2 cos^2(e - phi_a)) / 2, with noise on particles a and c and
    # cos^2 = 1 without Eve.  The law lives only here: the library keeps one
    # oracle.
    rng = np.random.default_rng(2308)
    worst = 0.0
    for case in range(400):
        spec = GhzSpec.all_canonical()[case % 8]
        mode = (Mode.SPIN, Mode.POLARIZATION)[(case // 8) % 2]
        phi_a, phi_c = rng.uniform(0, 2 * math.pi, size=2)
        phases = (phi_a, solve_bob_phase(spec, phi_a, phi_c, int(rng.choice((1, -1)))), phi_c)
        p = float(rng.choice((0.0, 1.0, rng.uniform())))
        eve = None if case % 3 == 0 else float(rng.uniform(0, 2 * math.pi))
        overlap = 1.0 if eve is None else math.cos(eve - phi_a) ** 2
        law = (1 - (1 - p) ** 2 * overlap) / 2
        got = exact_violation_rate(spec, phases, mode, eve_angle=eve, noise_p=p)
        worst = max(worst, abs(got - law))
    assert worst <= 1e-12


def test_grid_sizes_and_angles_must_be_valid():
    for n_grid in (0, -3):
        with pytest.raises(ValueError, match="n_grid"):
            continuous_attack_rate(SPEC, 1, n_grid=n_grid)
    # One grid point is a valid (if coarse) average.
    assert continuous_attack_rate(SPEC, 1, noise_p=0.2, n_grid=1) == pytest.approx((1 - 0.8**2) / 2, abs=1e-12)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=bad)


def test_guess_average_adds_left_to_right():
    # Python 3.12's sum() of floats is compensated and differs in the last
    # bit from plain addition, which the pinned sweep comment lines assume.
    for spec, mode, p in itertools.product(GhzSpec.all_canonical(), Mode, (0.0, 0.05, 0.1)):
        triples = [t for t, _ in super_classical_triples(MENU, spec)]
        eve_angles = [float(a) for a in MENU]
        rates = _violation_rates(spec, [t for t in triples for _ in MENU], mode, eve_angles * len(triples), p)
        want = {t: ((r0 + r1) + r2) / 3.0 for t, (r0, r1, r2) in zip(triples, zip(*[iter(rates)] * 3))}
        assert menu_attack_summary(spec, MENU, mode, p)["by_triple"] == want


def test_menu_attack_rates_match_per_triple_averages():
    rates = menu_attack_rates(SPEC, MENU, guess_from_menu=True)
    assert rates.retention == pytest.approx(14 / 27)
    # the rate is the plain average of the per-triple guess averages
    summary = menu_attack_summary(SPEC, MENU)
    per_triple = summary["by_triple"]
    assert rates.overall == pytest.approx(sum(per_triple.values()) / len(per_triple))
    assert summary["joint_average"] == pytest.approx(rates.overall)
    assert rates.overall == pytest.approx(3 / 14, abs=1e-12)


# --------------------------------------------------------------------------
# detection


def test_detect_clean_and_thresholds():
    result, transcript = run_method1(
        ProtocolConfig(method=Method.METHOD1, menu=MENU, key_length=32, seed=2)
    )
    report = detect(transcript, threshold=0.0)
    assert report.violations == 0
    assert report.verdict is Verdict.CLEAN
    assert report.rounds_checked == report.class_counts[1][0] + report.class_counts[-1][0] == 32
    # A NaN threshold compares false with every rate, so it would clear any session.
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            detect(transcript, threshold=bad)


def test_detect_requires_retained_rounds():
    # A session of the -1 class alone is checked in full ...
    cfg = ProtocolConfig(method=Method.METHOD2, key_length=8, seed=1, bob_parity_preference=-1)
    _, transcript = run_method2(cfg)
    report = detect(transcript, threshold=0.0)
    assert (report.rounds_checked, report.class_counts) == (8, {1: (0, 0), -1: (8, 0)})
    # ... and a transcript with no retained round leaves nothing to count.
    discarded = dataclasses.replace(
        transcript, retained=np.zeros(8, dtype=bool), parity=np.zeros(8, dtype=int), violation=np.zeros(8, dtype=bool)
    )
    with pytest.raises(NoRetainedRounds):
        detect(discarded, threshold=0.0)


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
    oracle = menu_attack_rates(SPEC, MENU, guess_from_menu=True).overall
    report = result.detection
    assert report.rounds_checked == 4000
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


def test_pooled_verdict_matches_its_calibration():
    # On this menu a one-bit session's only round was once checked as the
    # -1 class against the +1 class's threshold, 0.1164374999999999.
    menu = (0.0, math.pi / 3, math.pi)
    r0 = menu_attack_rates(SPEC, menu, noise_p=0.05).overall
    r1 = menu_attack_rates(SPEC, menu, guess_from_menu=True, noise_p=0.05).overall
    for key_length in (1, 64):
        cfg = ProtocolConfig(
            method=Method.METHOD1,
            menu=menu,
            key_length=key_length,
            seed=2,
            noise=NoiseModel.depolarizing(0.05),
            eve=EveStrategy.intercept_resend_a(),
        )
        threshold = calibrate_threshold(cfg)
        assert threshold == 0.5 * (r0 + r1)
        assert threshold == pytest.approx(0.11142361111111102, abs=1e-12)
        report = run_method1(dataclasses.replace(cfg, threshold=threshold))[0].detection
        assert report.rounds_checked == key_length == report.class_counts[1][0] + report.class_counts[-1][0]


# --------------------------------------------------------------------------
# key information


def _impersonation_config(method, preference=1):
    return ProtocolConfig(
        method=method,
        menu=MENU if method is Method.METHOD1 else None,
        key_length=1,
        seed=1,
        bob_parity_preference=preference,
    )


def _key_information(config):
    return mutual_information(impersonation_view_joint(config))


def test_impersonation_key_information_is_zero():
    for method in (Method.METHOD1, Method.METHOD2):
        for preference in (1, -1):
            info = _key_information(_impersonation_config(method, preference))
            assert abs(info) <= 1e-12


def test_impersonation_key_information_in_polarization_mode():
    pol = ProtocolConfig(method=Method.METHOD2, mode=Mode.POLARIZATION, key_length=1, seed=1)
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
    m2 = ProtocolConfig(method=Method.METHOD2, key_length=8, noise=noise)
    cases = []
    # MENU retains both parity classes.  Every triple of thirds that SPEC
    # retains sums to 0 mod 2 pi: parity -1 only.
    thirds = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    assert {parity for _, parity in super_classical_triples(thirds, SPEC)} == {-1}
    for menu in (MENU, thirds):
        m1 = ProtocolConfig(method=Method.METHOD1, menu=menu, key_length=8, noise=noise)
        for eve in (EveStrategy.none(), EveStrategy.intercept_resend_a(), EveStrategy.intercept_resend_a(0.4)):
            cfg = dataclasses.replace(m1, eve=eve)
            angle = eve.fixed_angle
            attacked = menu_attack_rates(SPEC, menu, eve_angle=angle, guess_from_menu=angle is None, noise_p=p)
            clean = menu_attack_rates(SPEC, menu, noise_p=p)
            cases.append((cfg, clean.overall, attacked.overall))
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
    r1 = menu_attack_rates(SPEC, MENU, guess_from_menu=True, noise_p=0.02).overall
    assert 0.0 < threshold < r1


def test_eve_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy(EveKind.INTERCEPT_RESEND_A, math.nan)
    s = EveStrategy.intercept_resend_a(-math.pi / 2)
    assert s.fixed_angle == pytest.approx(3 * math.pi / 2)  # normalized
    assert EveStrategy.none().kind is EveKind.NONE
