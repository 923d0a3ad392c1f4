"""How an intercept-resend eavesdropper shows up in the parity statistics.

Three pictures: the exact violation-probability curve against the angle
offset between Eve and the sender (with Monte-Carlo alongside), the
menu-averaged attack rates a real session produces, and threshold
calibration that keeps detection working on a noisy channel.
"""

import math

from ghzkd import (
    EveStrategy,
    GhzSpec,
    Method,
    NoiseModel,
    ProtocolConfig,
    calibrate_threshold,
    continuous_attack_rate,
    exact_violation_rate,
    menu_attack_rates,
    monte_carlo_violation_rate,
    run_method1,
    run_method2,
)

SPEC = GhzSpec("+++", -1)
MENU = (0.0, math.pi / 2, math.pi)
TRIPLE = (0.0, math.pi / 2, math.pi / 2)  # sums to pi: parity +1


def zero_in_theory(x: float) -> str:
    """A value that exact arithmetic makes 0: below 1e-12 it prints as '< 1e-12', not as round-off."""
    return "< 1e-12" if abs(x) < 1e-12 else f"= {x:.3e}"


print("=== Violation probability vs Eve's angle offset (exact vs sampled) ===")
print(f"{'offset':>8} {'oracle':>10} {'monte-carlo':>12}")
for k in range(9):
    delta = k * math.pi / 8
    oracle = exact_violation_rate(SPEC, TRIPLE, eve_angle=TRIPLE[0] + delta)
    v, n = monte_carlo_violation_rate(SPEC, TRIPLE, eve_angle=TRIPLE[0] + delta, n_rounds=2000, seed=k)
    print(f"{delta:8.4f} {oracle:10.4f} {v / n:12.4f}")

matched = exact_violation_rate(SPEC, TRIPLE, eve_angle=TRIPLE[0])
print()
print(f"matched-angle intercept: oracle rate {zero_in_theory(matched)}, against 1/2 for a "
      f"quarter-turn mismatch")

print()
print("=== What a menu session sees ===")
rates = menu_attack_rates(SPEC, MENU, guess_from_menu=True)
print(f"retention {rates.retention:.4f}; attacked rate over every retained round {rates.overall:.4f}")

attacked = ProtocolConfig(
    method=Method.METHOD1, menu=MENU, key_length=600, seed=5,
    eve=EveStrategy.intercept_resend_a(),  # guesses from the menu
)
result, _ = run_method1(attacked)
print(f"attacked session: rate {result.detection.rate:.4f} over "
      f"{result.detection.rounds_checked} checked rounds -> {result.detection.verdict.value}")

honest = ProtocolConfig(method=Method.METHOD1, menu=MENU, key_length=600, seed=5)
result, _ = run_method1(honest)
print(f"honest session:   rate {result.detection.rate:.4f} over "
      f"{result.detection.rounds_checked} checked rounds -> {result.detection.verdict.value}")

print()
print("=== Noisy channel: calibrate the threshold, keep detecting ===")
p = 0.05
base = ProtocolConfig(
    method=Method.METHOD2, key_length=2000, seed=9,
    noise=NoiseModel.depolarizing(p),
    eve=EveStrategy.intercept_resend_a(math.pi / 3),
)
threshold = calibrate_threshold(base)
noise_only_rate = (1 - (1 - p) ** 2) / 2
attacked_rate = continuous_attack_rate(SPEC, 1, eve_angle=math.pi / 3, noise_p=p)
print(f"noise-only rate {noise_only_rate:.4f}, noise+Eve rate {attacked_rate:.4f}, "
      f"threshold {threshold:.4f}")

import dataclasses

for label, cfg in [
    ("noise only", dataclasses.replace(base, eve=EveStrategy.none(), threshold=threshold, seed=31)),
    ("noise + Eve", dataclasses.replace(base, threshold=threshold, seed=32)),
]:
    result, _ = run_method2(cfg)
    print(f"  {label:<12} rate {result.detection.rate:.4f} -> {result.detection.verdict.value}")
