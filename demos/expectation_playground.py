"""Tour of the measurement math: closed forms vs the exact engine.

Walks the eight GHZ variants, checks the single-cosine expectation rule
against full 8-dimensional linear algebra, and shows what happens when the
signed phase sum hits 0 or pi: the three-outcome product becomes a sure
thing and the joint distribution collapses onto four equally likely cells.
"""

import math

import numpy as np

from ghzkd import (
    GhzSpec,
    MeasurementSetting,
    Mode,
    analytic_expectation,
    compatible_outcomes,
    expectation,
    ghz_state,
    is_super_classical,
    joint_outcome_distribution,
    make_retarded_analyzer,
    polarization_analyzer,
    wave_retarder,
)

rng = np.random.default_rng(2024)


def zero_in_theory(x: float) -> str:
    """A value that exact arithmetic makes 0: below 1e-12 it prints as '< 1e-12', not as round-off."""
    return "< 1e-12" if abs(x) < 1e-12 else f"= {x:.3e}"


def settings(mode, phases):
    return tuple(MeasurementSetting(mode, p) for p in phases)


print("=== The eight GHZ variants and their sign rules ===")
phases = (0.7, 0.4, 1.1)
print(f"random phases: {phases}")
for spec in GhzSpec.all_canonical():
    closed = analytic_expectation(spec, phases)
    numeric = expectation(ghz_state(spec), settings(Mode.SPIN, phases))
    s1, s2, s3 = spec.signs
    rule = f"{'+' if spec.phase > 0 else '-'}cos({s1:+d}p1 {s2:+d}p2 {s3:+d}p3)"
    print(f"  {spec}:  E = {rule:<24} closed {closed:+.6f}   engine {numeric:+.6f}")

print()
print("=== Spin azimuths and retardances obey the same rule ===")
spec = GhzSpec("+-+", -1)
for mode in Mode:
    numeric = expectation(ghz_state(spec), settings(mode, phases))
    print(f"  {mode.value:<13} engine {numeric:+.9f}   closed {analytic_expectation(spec, phases):+.9f}")

print()
print("=== Retarded analyzer: closed form equals the explicit matrix product ===")
theta, delta = rng.uniform(0, 2 * math.pi, size=2)
w = wave_retarder(delta)
product = w.conj().T @ polarization_analyzer(theta) @ w
closed = make_retarded_analyzer(theta, delta)
print(f"  theta={theta:.4f} delta={delta:.4f}  max |product - closed| "
      f"{zero_in_theory(np.max(np.abs(product - closed)))}")

print()
print("=== Deterministic parity: sums of 0 or pi pin the outcome product ===")
spec = GhzSpec("+++", -1)
for phases in [(0.0, 0.0, 0.0), (math.pi / 2, math.pi / 4, math.pi / 4), (math.pi / 3, 0.0, 0.0)]:
    parity = is_super_classical(spec, phases)
    label = "none (round would be discarded)" if parity is None else f"{parity:+d}"
    print(f"  phases {phases}: parity {label}")

print()
print("=== Collapse onto the four compatible outcomes ===")
phases = (math.pi / 2, math.pi / 4, math.pi / 4)  # sums to pi: parity +1
dist = joint_outcome_distribution(ghz_state(spec), settings(Mode.SPIN, phases))
parity = is_super_classical(spec, phases)
print(f"  parity {parity:+d}; compatible set {sorted(compatible_outcomes(parity))}")
for triple, p in sorted(dist.items()):
    marker = "<-" if p > 1e-9 else ""
    print(f"  P{triple} = {p:.6f} {marker}")
print("  knowing any two outcomes pins the third with certainty.")
