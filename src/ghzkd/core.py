"""Exact linear algebra for one- and three-qubit dichotomic measurements.

States are dense complex vectors (dimension 2 or 8) with particle ``a`` on
the most significant index bit, so ``tensor3(A, B, C)`` acts on particles
a, b, c in argument order.  Every observable built here is Hermitian and
squares to the identity, so measurement outcomes are +1 or -1 throughout.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

#: Outcome triples in basis-index order: bit value 0 means outcome +1.
OUTCOME_TRIPLES = tuple(
    (1 - 2 * (k >> 2 & 1), 1 - 2 * (k >> 1 & 1), 1 - 2 * (k & 1)) for k in range(8)
)

#: Product r1*r2*r3 of each outcome triple, again in basis-index order.
PRODUCT_BY_INDEX = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=int)

NORM_TOL = 1e-12
OPERATOR_TOL = 1e-12
IMAG_TOL = 1e-10


class Mode(enum.Enum):
    """Physical realization of a dichotomic measurement."""

    SPIN = "spin"
    POLARIZATION = "polarization"


# Polar angle at which each family reduces to a pure phase measurement.
DEFAULT_POLAR = {Mode.SPIN: math.pi / 2, Mode.POLARIZATION: math.pi / 4}


def normalize_angle(x: float) -> float:
    """Map an angle in radians into [0, 2*pi); where the float ``%`` rounds up to 2*pi (``-1e-17``) it gives 0.0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    x %= TWO_PI
    return 0.0 if x == TWO_PI else x


def normalize_angles(xs) -> np.ndarray:
    """``normalize_angle`` of every element of ``xs``; ``np.mod`` equals the float ``%``."""
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"angle must be finite, got {float(xs[~np.isfinite(xs)].flat[0])!r}")
    xs = np.mod(xs, TWO_PI)
    return np.where(xs == TWO_PI, 0.0, xs)


@dataclass(frozen=True)
class MeasurementSetting:
    """One party's observable: a mode plus a phase angle (and a polar angle).

    ``phase`` is the azimuth for spin measurements and the retardance for
    polarization measurements; it is normalized into [0, 2*pi).  ``polar``
    defaults to pi/2 (spin) or pi/4 (polarization), the angles at which the
    observable depends on the phase alone.
    """

    mode: Mode
    phase: float
    polar: float = None  # type: ignore[assignment]  # resolved in __post_init__

    def __post_init__(self):
        object.__setattr__(self, "phase", normalize_angle(self.phase))
        polar = DEFAULT_POLAR[self.mode] if self.polar is None else float(self.polar)
        if not math.isfinite(polar):
            raise ValueError(f"polar angle must be finite, got {polar!r}")
        object.__setattr__(self, "polar", polar)


def spin_setting(phi: float, theta: float | None = None) -> MeasurementSetting:
    """Spin measurement at azimuth ``phi`` (polar angle defaults to pi/2)."""
    return MeasurementSetting(Mode.SPIN, phi, theta)


def make_spin_observable(theta: float, phi: float) -> np.ndarray:
    """Spin observable along the direction with polar angle theta, azimuth phi.

    Returns [[cos t, sin t e^{-i phi}], [sin t e^{i phi}, -cos t]]; traceless,
    Hermitian, and involutive.
    """
    c, s = math.cos(theta), math.sin(theta)
    e = cmath.exp(1j * phi)
    return np.array([[c, s * e.conjugate()], [s * e, -c]], dtype=complex)


def wave_retarder(delta: float) -> np.ndarray:
    """Jones matrix of a wave retarder at zero azimuth with retardance delta."""
    e = cmath.exp(1j * delta / 2.0)
    return np.array([[e.conjugate(), 0.0], [0.0, e]], dtype=complex)


def polarization_analyzer(theta: float) -> np.ndarray:
    """Dichotomic linear-analyzer observable at analyzer angle theta."""
    c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    return np.array([[c2, s2], [s2, -c2]], dtype=complex)


def make_retarded_analyzer(theta: float, delta: float) -> np.ndarray:
    """Analyzer at angle theta sandwiched between retarders of retardance delta.

    Closed form of retarder^dagger @ analyzer @ retarder:
    [[cos 2t, sin 2t e^{i d}], [sin 2t e^{-i d}, -cos 2t]].
    """
    c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    e = cmath.exp(1j * delta)
    return np.array([[c2, s2 * e], [s2 * e.conjugate(), -c2]], dtype=complex)


@lru_cache(maxsize=2048)
def _observable_cached(mode: Mode, phase: float, polar: float) -> np.ndarray:
    if mode is Mode.SPIN:
        op = make_spin_observable(polar, phase)
    else:
        op = make_retarded_analyzer(polar, phase)
    op.setflags(write=False)
    return op


def observable_for(setting: MeasurementSetting) -> np.ndarray:
    """The 2x2 observable realizing a measurement setting."""
    return _observable_cached(setting.mode, setting.phase, setting.polar)


def _check_observables(ops: np.ndarray) -> np.ndarray:
    """Reject any of the 2x2 observables in ``ops`` (shape (..., 2, 2)) that is not Hermitian and involutive.

    The entries of O - O^H are 2i Im O[0, 0], 2i Im O[1, 1] and
    +-(O[0, 1] - conj(O[1, 0])).  A Hermitian O is [[a, b], [b*, d]], and the
    entries of O @ O - I are a^2 + |b|^2 - 1, d^2 + |b|^2 - 1 and b (a + d).
    The sizes of both sets are computed in elementwise real arithmetic.
    """
    a, b, c, d = ops[..., 0, 0], ops[..., 0, 1], ops[..., 1, 0], ops[..., 1, 1]
    residuals = (2.0 * np.abs(a.imag), 2.0 * np.abs(d.imag), np.hypot(b.real - c.real, b.imag + c.imag))
    if not all(np.max(r) <= OPERATOR_TOL for r in residuals):  # NaN fails too
        raise ValueError("observable is not Hermitian")
    a, d, b_sq = a.real, d.real, b.real**2 + b.imag**2
    residuals = (np.abs(a * a + b_sq - 1.0), np.abs(d * d + b_sq - 1.0), np.sqrt(b_sq) * np.abs(a + d))
    if not all(np.max(r) <= OPERATOR_TOL for r in residuals):
        raise ValueError("observable is not involutive (O @ O != I)")
    return ops


def _fix_phases(vs: np.ndarray) -> np.ndarray:
    """Fix the global phase of every row of ``vs`` (shape (n, 2)).

    The first component becomes real and non-negative, or if it vanishes,
    the second real and positive.
    """
    first = np.abs(vs[:, 0]) > 1e-15
    pivot = np.where(first, vs[:, 0], vs[:, 1])
    size = np.hypot(pivot.real, pivot.imag)
    w = vs * (pivot.conj() / size)[:, None]
    w[:, 0] = np.where(first, size, 0.0)
    w[~first, 1] = size[~first]
    return w


def observables(mode: Mode, phases) -> np.ndarray:
    """``observable_for`` at each phase with the mode's default polar angle, shape (n, 2, 2)."""
    phases = np.asarray(phases, dtype=float).ravel()
    polar = DEFAULT_POLAR[mode]
    e = np.exp(1j * phases)
    ops = np.empty((len(phases), 2, 2), dtype=complex)
    if mode is Mode.SPIN:
        c, s = math.cos(polar), math.sin(polar)
        ops[:, 0, 1], ops[:, 1, 0] = s * e.conj(), s * e
    else:
        c, s = math.cos(2.0 * polar), math.sin(2.0 * polar)
        ops[:, 0, 1], ops[:, 1, 0] = s * e, s * e.conj()
    ops[:, 0, 0], ops[:, 1, 1] = c, -c
    return ops


def eigenbases(ops: np.ndarray) -> np.ndarray:
    """Phase-fixed (+1, -1) eigenvectors of each dichotomic observable in ``ops`` (shape (n, 2, 2)).

    Returns shape (n, 2, 2): row i holds the eigenvectors of ``ops[i]`` as
    its two columns.  The global phase of each eigenvector is pinned so
    post-measurement states are reproducible bit for bit: the first
    component is real and non-negative, and when it is zero the second is
    real and positive.
    """
    ops = _check_observables(np.asarray(ops, dtype=complex))
    a, b = ops[:, 0, 0].real, ops[:, 0, 1]
    upper = a >= 0.0
    t = np.where(upper, 1.0 + a, 1.0 - a)
    # a >= 0: chi_p = (1+a, b*), chi_m = (-b, 1+a); a < 0: chi_p = (b, 1-a), chi_m = (1-a, -b*).
    chis = np.empty((len(ops), 2, 2), dtype=complex)
    chis[:, 0, 0], chis[:, 0, 1] = np.where(upper, t, b), np.where(upper, b.conj(), t)
    chis[:, 1, 0], chis[:, 1, 1] = np.where(upper, -b, t), np.where(upper, t, -b.conj())
    chis /= np.sqrt(2.0 * t)[:, None, None]
    return _fix_phases(chis.reshape(-1, 2)).reshape(-1, 2, 2).swapaxes(1, 2)


def eigenbasis(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-fixed (+1, -1) eigenvectors of a dichotomic 2x2 observable; ``eigenbases`` of one."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 observable, got shape {op.shape}")
    chi_p, chi_m = eigenbases(op[None])[0].T
    return chi_p, chi_m


@lru_cache(maxsize=2048)
def _eigenbasis_cached(mode: Mode, phase: float, polar: float):
    chi_p, chi_m = eigenbasis(_observable_cached(mode, phase, polar))
    chi_p.setflags(write=False)
    chi_m.setflags(write=False)
    return chi_p, chi_m


def tensor3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b (x) c with the first factor most significant."""
    for name, op in (("a", a), ("b", b), ("c", c)):
        if np.shape(op) != (2, 2):
            raise ValueError(f"tensor3 factor {name} must be 2x2, got {np.shape(op)}")
    return np.kron(np.kron(a, b), c)


def _check_state(state: np.ndarray, dim: int = 8) -> np.ndarray:
    """``_check_states`` of one state vector, after checking its shape."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"expected a state vector of dimension {dim}, got shape {state.shape}")
    _check_states(state[None])
    return state


def _check_states(states: np.ndarray) -> np.ndarray:
    """Reject any row of ``states`` (shape (n, dim)) that is not a finite, normalized state vector.

    The one state check: the exact oracles check their states here in
    batches, and ``_check_state`` is its one-row view for the scalar functions.
    """
    if not np.all(np.isfinite(states)):
        raise ValueError("state vector contains non-finite amplitudes")
    norm_sq = np.sum(np.abs(states) ** 2, axis=1)
    error = np.abs(norm_sq - 1.0)
    if np.any(error > NORM_TOL):
        worst = float(norm_sq[np.argmax(error)])
        raise ValueError(f"state vector is not normalized: sum |amp|^2 = {worst!r}")
    return states


def expectation_of_operator(state: np.ndarray, op: np.ndarray) -> float:
    """<state| op |state>, rejecting any significant imaginary residue.

    An imaginary part above 1e-10 is raised as an error rather than dropped;
    it signals a non-Hermitian operator slipped in somewhere upstream.
    """
    val = complex(np.vdot(state, op @ state))
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"expectation value has imaginary residue {val.imag!r}")
    return float(val.real)


def expectation(state: np.ndarray, settings) -> float:
    """<psi| O1 (x) O2 (x) O3 |psi> for one measurement setting per particle."""
    state = _check_state(state)
    s1, s2, s3 = settings
    op = tensor3(observable_for(s1), observable_for(s2), observable_for(s3))
    return expectation_of_operator(state, op)


@lru_cache(maxsize=4096)
def _basis_change(settings: tuple[MeasurementSetting, ...]) -> np.ndarray:
    """Adjoint of the unitary whose columns are the joint eigenvectors."""
    vs = []
    for s in settings:
        chi_p, chi_m = _eigenbasis_cached(s.mode, s.phase, s.polar)
        vs.append(np.column_stack([chi_p, chi_m]))
    u = np.kron(np.kron(vs[0], vs[1]), vs[2]).conj().T
    u.setflags(write=False)
    return u


def _joint_probs(state: np.ndarray, settings) -> np.ndarray:
    """Born probabilities of the 8 outcome triples, in basis-index order."""
    amps = _basis_change(tuple(settings)) @ state
    return np.abs(amps) ** 2


def joint_outcome_distribution(state: np.ndarray, settings) -> dict[tuple[int, int, int], float]:
    """Joint Born distribution over the 8 outcome triples (+1/-1 per particle)."""
    state = _check_state(state)
    probs = _joint_probs(state, settings)
    return {OUTCOME_TRIPLES[k]: float(probs[k]) for k in range(8)}


def sample_joint(state: np.ndarray, settings, rng: np.random.Generator) -> tuple[int, int, int]:
    """Draw one outcome triple from the joint distribution using a single rng draw."""
    state = _check_state(state)
    probs = _joint_probs(state, settings)
    u = rng.random()
    k = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return OUTCOME_TRIPLES[min(k, 7)]


def born_probabilities(state: np.ndarray, qubit: int, setting: MeasurementSetting) -> tuple[float, float]:
    """(P(+1), P(-1)) for measuring one particle (qubit in 1..3) of a 3-qubit state."""
    state = _check_state(state)
    ax = _qubit_axis(qubit)
    t = state.reshape(2, 2, 2)
    chi_p, chi_m = _eigenbasis_cached(setting.mode, setting.phase, setting.polar)
    p_plus = float(np.sum(np.abs(np.tensordot(chi_p.conj(), t, axes=([0], [ax]))) ** 2))
    p_minus = float(np.sum(np.abs(np.tensordot(chi_m.conj(), t, axes=([0], [ax]))) ** 2))
    return p_plus, p_minus


def _qubit_axis(qubit: int) -> int:
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {qubit!r}")
    return qubit - 1


def _apply_1q(op: np.ndarray, state: np.ndarray, qubit: int) -> np.ndarray:
    """``state`` with the 2x2 ``op`` on particle ``qubit`` (1..3); exact for a Pauli, whose entries are 0, +-1, +-i."""
    ax = _qubit_axis(qubit)
    return np.moveaxis(np.tensordot(op, np.reshape(state, (2, 2, 2)), axes=([1], [ax])), 0, ax).reshape(8)


def project_single(
    state: np.ndarray, qubit: int, setting: MeasurementSetting, outcome: int
) -> tuple[float, np.ndarray | None]:
    """Project one particle onto the given outcome's eigenvector.

    Returns (branch probability, renormalized post-measurement state); the
    state is None when the branch has zero probability.
    """
    state = _check_state(state)
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    ax = _qubit_axis(qubit)
    chi_p, chi_m = _eigenbasis_cached(setting.mode, setting.phase, setting.polar)
    chi = chi_p if outcome == 1 else chi_m
    t = state.reshape(2, 2, 2)
    amp = np.tensordot(chi.conj(), t, axes=([0], [ax]))
    prob = float(np.sum(np.abs(amp) ** 2))
    if prob <= 1e-300:
        return 0.0, None
    post = np.moveaxis(np.tensordot(chi, amp, axes=0), 0, ax).reshape(8)
    return prob, post / math.sqrt(prob)


def measure_single(
    state: np.ndarray, qubit: int, setting: MeasurementSetting, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Projectively measure one particle of a 3-qubit state.

    The outcome is drawn with Born probabilities and the returned state is
    the renormalized projection, so a zero-probability branch can never be
    produced.
    """
    p_plus, _ = born_probabilities(state, qubit, setting)
    outcome = 1 if rng.random() < p_plus else -1
    _, post = project_single(state, qubit, setting, outcome)
    assert post is not None
    return outcome, post
