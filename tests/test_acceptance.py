"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ghzkd.adversary import (
    EveStrategy,
    NoiseModel,
    Verdict,
    calibrate_threshold,
    continuous_attack_rate,
    exact_violation_rate,
    impersonation_view_joint,
    monte_carlo_violation_rate,
    mutual_information,
    pad_reuse_information,
)
from ghzkd.cli import main
from ghzkd.core import Mode, MeasurementSetting, expectation, joint_outcome_distribution, spin_setting
from ghzkd.ghz import (
    GhzSpec,
    analytic_expectation,
    compatible_outcomes,
    ghz_state,
    is_super_classical,
    menu_quality,
)
from ghzkd.protocol import (
    Method,
    ProtocolConfig,
    bit_of,
    encode_bit,
    recover_alice_bit,
    recover_key_bit,
    run_method1,
    run_method2,
)

_SUITE_T0 = time.perf_counter()

MENU = (0.0, math.pi / 2, math.pi)
SPEC = GhzSpec("+++", -1)
SC_TRIPLE = (0.0, math.pi / 2, math.pi / 2)
TWO_PI = 2 * math.pi


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _settings(mode, phases):
    return tuple(MeasurementSetting(mode, p) for p in phases)


def test_criterion_1_closed_form_equals_numeric():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for spec in GhzSpec.all_canonical():
        psi = ghz_state(spec)
        for _ in range(1000):
            phases = tuple(rng.uniform(0, TWO_PI, size=3))
            want = analytic_expectation(spec, phases)
            for mode in Mode:
                got = expectation(psi, _settings(mode, phases))
                worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-10 and elapsed <= 5.0,
        f"8 states x 1000 phase triples x 2 modes, max |analytic - numeric| = {worst:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_super_classical_collapse():
    rng = np.random.default_rng(202)
    worst = 0.0
    for spec in GhzSpec.all_canonical():
        psi = ghz_state(spec)
        s1, s2, s3 = spec.signs
        for i in range(100):
            p1, p2 = rng.uniform(0, TWO_PI, size=2)
            target = math.pi * rng.integers(2)
            p3 = (s3 * (target - s1 * p1 - s2 * p2)) % TWO_PI
            phases = (p1, p2, p3)
            parity = is_super_classical(spec, phases)
            assert parity is not None
            mode = Mode.SPIN if i % 2 == 0 else Mode.POLARIZATION
            dist = joint_outcome_distribution(psi, _settings(mode, phases))
            allowed = compatible_outcomes(parity)
            for triple, p in dist.items():
                worst = max(worst, abs(p - (0.25 if triple in allowed else 0.0)))
    _report(
        2,
        worst <= 1e-10,
        f"100 deterministic-parity triples per state: four compatible outcomes at 0.25, "
        f"zero elsewhere, max deviation {worst:.2e}",
    )


def test_criterion_3_worked_chart_reproduction():
    key = [1, 0, 1, 1]
    a_bits = [0, 1, 1, 0]
    c_bits = [0, 0, 1, 0]
    b_bits = [0, 1, 0, 0]
    d_bits = [encode_bit(a, k) for a, k in zip(a_bits, key)]
    e_bits = [d ^ c for d, c in zip(d_bits, c_bits)]
    recovered = [recover_key_bit(d, c, b, 1) for d, c, b in zip(d_bits, c_bits, b_bits)]
    inferred = [recover_alice_bit(k, d) for k, d in zip(recovered, d_bits)]
    ok = (
        d_bits == [1, 1, 0, 1]
        and e_bits == [1, 1, 1, 1]
        and recovered == [1, 0, 1, 1]
        and inferred == a_bits
    )
    _report(3, ok, f"chart columns bit-exact: D={d_bits}, E={e_bits}, K={recovered}")


def test_criterion_4_lossless_key_transport():
    quality = menu_quality(MENU, SPEC)
    assert quality == pytest.approx(14 / 27)  # enumeration oracle first
    checks = []
    for seed in (1, 7, 123):
        cfg1 = ProtocolConfig(method=Method.METHOD1, menu=MENU, key_length=128, seed=seed)
        r1, t1 = run_method1(cfg1)
        cfg2 = ProtocolConfig(method=Method.METHOD2, key_length=128, seed=seed)
        r2, _ = run_method2(cfg2)
        exact = (
            r1.key_recovered == r1.key_sent
            and r2.key_recovered == r2.key_sent
            and sum(r.violation for r in t1.rounds) == 0
            and r2.detection.violations == 0
        )
        # rounds to collect 128 retained draws: negative binomial around k/q
        k, q = 128, quality
        spread = 4 * math.sqrt(k * (1 - q)) / q
        within = abs(r1.rounds_used - k / q) <= spread
        checks.append(exact and within)
    _report(
        4,
        all(checks),
        f"both methods recover 128/128 key bits with zero violations over seeds (1, 7, 123); "
        f"menu retention consistent with {quality:.4f}",
    )


def test_criterion_5_interceptor_detection():
    oracle = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0] + math.pi / 2)
    half_ok = abs(oracle - 0.5) <= 1e-12
    v, n = monte_carlo_violation_rate(
        SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0] + math.pi / 2, n_rounds=10_000, seed=51
    )
    sigma = math.sqrt(0.5 * 0.5 / n)
    mc_ok = abs(v / n - oracle) <= 4 * sigma
    matched = exact_violation_rate(SPEC, SC_TRIPLE, eve_angle=SC_TRIPLE[0])
    _report(
        5,
        half_ok and mc_ok,
        f"offset pi/2: oracle {oracle:.12f}, Monte-Carlo {v / n:.4f} over {n} rounds; "
        f"matched-angle oracle value {matched:.3e}",
    )


def test_criterion_6_one_time_pad_security():
    infos = []
    for method in (Method.METHOD1, Method.METHOD2):
        for preference in (1, -1):
            cfg = ProtocolConfig(
                method=method,
                menu=MENU if method is Method.METHOD1 else None,
                key_length=1,
                seed=1,
                bob_parity_preference=preference,
                eve=EveStrategy.impersonate_charlie(),
            )
            infos.append(abs(mutual_information(impersonation_view_joint(cfg))))
    s1 = tuple(spin_setting(x) for x in SC_TRIPLE)
    s2 = tuple(spin_setting(x) for x in (0.9, 1.3, 0.4))
    pad = abs(pad_reuse_information(SPEC, s1, GhzSpec("++-", -1), s2))
    ok = max(infos) <= 1e-12 and pad <= 1e-12
    _report(
        6,
        ok,
        f"impersonation view carries {max(infos):.2e} bits (both parities, both methods); "
        f"pad reuse I(D1,D2;K) = {pad:.2e} bits",
    )


def test_criterion_7_noise_endpoints_and_threshold():
    from scipy.stats import binom

    r_zero = exact_violation_rate(SPEC, SC_TRIPLE, noise_p=0.0)
    r_one = exact_violation_rate(SPEC, SC_TRIPLE, noise_p=1.0)
    endpoints_ok = abs(r_zero) <= 1e-12 and abs(r_one - 0.5) <= 1e-12
    v, n = monte_carlo_violation_rate(
        SPEC, SC_TRIPLE, noise=NoiseModel.depolarizing(1.0), n_rounds=4000, seed=77
    )
    mc_ok = abs(v / n - 0.5) <= 4 * math.sqrt(0.25 / n)

    p = 0.05
    rounds = 2000
    cfg = ProtocolConfig(
        method=Method.METHOD2,
        key_length=rounds,
        seed=27,
        noise=NoiseModel.depolarizing(p),
        eve=EveStrategy.intercept_resend_a(math.pi / 3),
    )
    threshold = calibrate_threshold(cfg)
    r0 = (1 - (1 - p) ** 2) / 2
    r1 = continuous_attack_rate(SPEC, 1, eve_angle=math.pi / 3, noise_p=p)
    cut = math.floor(threshold * rounds)
    false_alarm = binom.sf(cut, rounds, r0)
    miss = binom.cdf(cut, rounds, r1)
    tails_ok = false_alarm < 0.01 and miss < 0.01

    import dataclasses

    clean_run, _ = run_method2(
        dataclasses.replace(cfg, eve=EveStrategy.none(), threshold=threshold, seed=81)
    )
    eve_run, _ = run_method2(dataclasses.replace(cfg, threshold=threshold, seed=82))
    sessions_ok = (
        clean_run.detection.verdict is Verdict.CLEAN
        and eve_run.detection.verdict is Verdict.EVE_DETECTED
    )
    _report(
        7,
        endpoints_ok and mc_ok and tails_ok and sessions_ok,
        f"exact rate {r_zero:.1e} at p=0 and {r_one:.12f} at p=1 (MC {v / n:.4f}); "
        f"threshold {threshold:.4f} splits {r0:.4f} vs {r1:.4f} with error probs "
        f"{false_alarm:.2e}/{miss:.2e} over {rounds}-round sessions",
    )


def test_criterion_8_determinism_and_runtime(tmp_path):
    args = [
        "simulate",
        "--method",
        "1",
        "--menu",
        "0,pi/2,pi",
        "--key-length",
        "16",
        "--seed",
        "42",
        "--eve",
        "intercept-a",
        "--threshold",
        "0.9",
    ]
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    code1 = main([*args, "--output", str(out1)])
    code2 = main([*args, "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())  # structured output stays parseable
    elapsed = time.perf_counter() - _SUITE_T0
    _report(
        8,
        code1 == code2 and identical and elapsed < 60.0,
        f"repeated flags+seed give byte-identical transcripts; acceptance module took {elapsed:.1f}s",
    )
