"""Closed-form expectation values and parity rules for three-particle GHZ states.

A GHZ ray is an equal superposition of a sign pattern and its bitwise
complement.  At the standard polar angles the three-party expectation value
collapses to a single cosine of the sign-weighted phase sum, and whenever
that sum hits 0 or pi the product of the three outcomes is deterministic.
Everything in this module is exact trigonometry; the numeric engine in
``core`` provides the independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import OUTCOME_TRIPLES, TWO_PI, normalize_angle, normalize_angles

SUPER_CLASSICAL_TOL = 1e-9

_SIGN_CHARS = {"+": 1, "-": -1}


@dataclass(frozen=True)
class GhzSpec:
    """One of the eight GHZ rays: a 3-sign ket pattern plus a relative phase.

    Flipping every pattern sign leaves the ray unchanged up to a global
    phase, so construction canonicalizes to a leading '+'; the sixteen raw
    (pattern, phase) pairs therefore collapse to eight distinct states.
    """

    pattern: str = "+++"
    phase: int = -1

    def __post_init__(self):
        if len(self.pattern) != 3 or any(ch not in _SIGN_CHARS for ch in self.pattern):
            raise ValueError(f"pattern must be three characters from '+-', got {self.pattern!r}")
        if self.phase not in (1, -1):
            raise ValueError(f"phase must be +1 or -1, got {self.phase!r}")
        if self.pattern[0] == "-":
            flipped = "".join("+" if ch == "-" else "-" for ch in self.pattern)
            object.__setattr__(self, "pattern", flipped)

    @property
    def signs(self) -> tuple[int, int, int]:
        """Pattern signs as (+1/-1, +1/-1, +1/-1)."""
        s1, s2, s3 = (_SIGN_CHARS[ch] for ch in self.pattern)
        return s1, s2, s3

    @property
    def ket_index(self) -> int:
        """Basis index of the pattern ket ('+' is bit 0, particle a most significant)."""
        bits = [0 if ch == "+" else 1 for ch in self.pattern]
        return (bits[0] << 2) | (bits[1] << 1) | bits[2]

    @classmethod
    def parse(cls, text: str) -> "GhzSpec":
        """Parse strings like '++-,-' into a GhzSpec."""
        parts = text.strip().split(",")
        if len(parts) != 2 or parts[1] not in ("+", "-"):
            raise ValueError(f"expected '<three signs>,<sign>', got {text!r}")
        return cls(parts[0], _SIGN_CHARS[parts[1]])

    @classmethod
    def all_canonical(cls) -> tuple["GhzSpec", ...]:
        """The eight physically distinct GHZ states in canonical form."""
        patterns = ("+++", "++-", "+-+", "+--")
        return tuple(cls(p, ph) for p in patterns for ph in (1, -1))

    def __str__(self) -> str:
        return f"{self.pattern},{'+' if self.phase == 1 else '-'}"


def ghz_state(spec: GhzSpec) -> np.ndarray:
    """8-dimensional state vector of a GHZ ray.

    Amplitude 1/sqrt(2) sits on the spec's ket pattern and phase/sqrt(2) on
    the bitwise-complement pattern.
    """
    amps = np.zeros(8, dtype=complex)
    k = spec.ket_index
    amps[k] = 1.0 / math.sqrt(2.0)
    amps[7 - k] = spec.phase / math.sqrt(2.0)
    return amps


def signed_phase_sum(spec: GhzSpec, phases) -> float:
    """Sign-weighted sum s1*p1 + s2*p2 + s3*p3 of a phase triple (or of three arrays of phases)."""
    s1, s2, s3 = spec.signs
    p1, p2, p3 = phases
    return s1 * p1 + s2 * p2 + s3 * p3


def analytic_expectation(spec: GhzSpec, phases) -> float:
    """Closed-form three-party expectation value at the standard polar angles.

    Equals phase * cos(s1*p1 + s2*p2 + s3*p3), where the signs come from the
    ket pattern.  Spin azimuths and retardances obey the same rule, so the
    phase triple is mode-agnostic.
    """
    return spec.phase * math.cos(signed_phase_sum(spec, phases))


def parity_rule(spec: GhzSpec, phases) -> np.ndarray:
    """Parity (+1/-1) of each phase triple (rows of ``phases``, shape (..., 3)), or 0 where none.

    A signed phase sum within ``SUPER_CLASSICAL_TOL`` of 0 mod 2*pi pins the
    expectation value at ``spec.phase``, a sum at pi at ``-spec.phase``: the
    product of the three outcomes equals that value on every run.  ``np.mod``
    equals the float ``%``, so a row gets the bits of the scalar arithmetic.
    """
    with np.errstate(invalid="ignore"):  # an infinite angle has no parity, as with float %
        r = np.mod(signed_phase_sum(spec, np.asarray(phases, dtype=float).T), TWO_PI)
    at_zero = np.minimum(r, TWO_PI - r) <= SUPER_CLASSICAL_TOL
    return np.where(at_zero, spec.phase, np.where(np.abs(r - math.pi) <= SUPER_CLASSICAL_TOL, -spec.phase, 0))


def is_super_classical(spec: GhzSpec, phases) -> int | None:
    """``parity_rule`` of one phase triple, with None where there is no parity."""
    return int(parity_rule(spec, phases)) or None


def compatible_outcomes(parity: int) -> frozenset[tuple[int, int, int]]:
    """The four outcome triples whose product equals the given parity."""
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity!r}")
    return frozenset(t for t in OUTCOME_TRIPLES if t[0] * t[1] * t[2] == parity)


def bob_phases(spec: GhzSpec, phi_a, phi_c, target: int) -> np.ndarray:
    """Phase for particle b that pins the round parity at ``target``, elementwise over the angle arrays.

    Solves s2*phi_b = t - s1*phi_a - s3*phi_c (mod 2*pi) with t chosen as 0
    or pi so the deterministic outcome product equals ``target``.  Always
    solvable for finite angles; the results lie in [0, 2*pi).
    """
    if target not in (1, -1):
        raise ValueError(f"target parity must be +1 or -1, got {target!r}")
    t = 0.0 if target == spec.phase else math.pi
    s1, s2, s3 = spec.signs
    with np.errstate(invalid="ignore"):  # inf - inf is rejected as non-finite
        return normalize_angles(s2 * (t - s1 * np.asarray(phi_a, dtype=float) - s3 * np.asarray(phi_c, dtype=float)))


def solve_bob_phase(spec: GhzSpec, phi_a: float, phi_c: float, target: int) -> float:
    """``bob_phases`` of one angle pair."""
    return float(bob_phases(spec, phi_a, phi_c, target))


def _validated_menu(menu) -> tuple[float, float, float]:
    angles = tuple(normalize_angle(a) for a in menu)
    if len(angles) != 3:
        raise ValueError(f"a menu must contain exactly 3 angles, got {len(angles)}")
    if len(set(angles)) != 3:
        raise ValueError(f"menu angles must be pairwise distinct, got {angles}")
    return angles


def super_classical_triples(menu, spec: GhzSpec) -> list[tuple[tuple[float, float, float], int]]:
    """All ordered menu triples with a deterministic parity, with that parity."""
    triples = list(itertools.product(_validated_menu(menu), repeat=3))
    return [(t, p) for t, p in zip(triples, parity_rule(spec, triples).tolist()) if p]


def menu_quality(menu, spec: GhzSpec) -> float:
    """Fraction of the 27 ordered menu triples whose parity is deterministic."""
    return len(super_classical_triples(menu, spec)) / 27.0
