"""Eavesdropper strategies, channel noise, violation detection, and exact oracles.

The oracles enumerate every branch (noise operator choices, the
eavesdropper's projective outcomes, and the parties' joint outcomes), so
they are exact up to float rounding.  Each oracle call is one batched
enumeration, ``_violation_rates``, over all of its phase triples, whose
array operations and summation order reproduce a one-state-at-a-time
enumeration bit for bit.  Its set-up is cheap: the noise-branch states
are built once per GHZ spec, and the parities and the
continuous grids' receiver angles come from ``ghz.parity_rule`` and
``ghz.bob_phases``.
The Monte-Carlo estimator they are checked against,
``protocol.monte_carlo_violation_rate``, plays real session rounds; tests
and sweeps compare the two rather than trusting either alone.

Channel pipeline for a round, which the protocol runner samples from its
closed-form law (``ghz.outcome_probs``): the prepared state passes noise on
particles a and c (the two in transit), then an intercept-resend
eavesdropper measures particle a, then the parties measure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    Mode,
    MeasurementSetting,
    PRODUCT_BY_INDEX,
    TWO_PI,
    _apply_1q,
    _check_states,
    _joint_probs,
    eigenbases,
    measure_single,
    normalize_angle,
    normalize_angles,
    observables,
    project_single,  # no caller here; bench/spans.py traces the name
    sample_joint,  # no caller here; bench/spans.py traces the name
)
from .ghz import GhzSpec, bob_phases, ghz_state, parity_rule, super_classical_triples
from .transcript import Transcript


class EveKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND_A = "intercept-a"


@dataclass(frozen=True)
class EveStrategy:
    """What the eavesdropper does, and at which angle she measures.

    An intercept-resend eavesdropper without a ``fixed_angle`` guesses
    uniformly among the menu angles each round.
    """

    kind: EveKind = EveKind.NONE
    fixed_angle: float | None = None

    def __post_init__(self):
        if self.fixed_angle is not None:
            if not math.isfinite(self.fixed_angle):
                raise ValueError(f"fixed_angle must be finite, got {self.fixed_angle!r}")
            object.__setattr__(self, "fixed_angle", normalize_angle(self.fixed_angle))

    @classmethod
    def none(cls) -> "EveStrategy":
        return cls(EveKind.NONE)

    @classmethod
    def intercept_resend_a(cls, fixed_angle: float | None = None) -> "EveStrategy":
        return cls(EveKind.INTERCEPT_RESEND_A, fixed_angle)


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit transit noise.

    Depolarizing(p): with probability p the transiting qubit is replaced by
    the maximally mixed state, realized by applying one of I, X, Y, Z chosen
    uniformly (branch sampled, so the engine stays on pure states).  At p=1
    the parity expectation of a deterministic round is exactly 0, giving a
    violation rate of 1/2.  Depolarizing(0) is the noiseless channel.
    """

    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability must be in [0, 1], got {self.p!r}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(0.0)

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseModel":
        return cls(float(p))


class Verdict(enum.Enum):
    CLEAN = "clean"
    EVE_DETECTED = "eve-detected"


class NoRetainedRounds(RuntimeError):
    """Raised when detection or calibration has no retained round to count."""


@dataclass
class DetectionReport:
    """Violation statistics over every retained round, plus each parity class's counts."""

    rounds_checked: int
    violations: int
    rate: float
    threshold: float
    verdict: Verdict
    class_counts: dict = field(default_factory=dict)  # {+1: (checked, violations), -1: ...}


def detection_report_to_dict(report: DetectionReport, reveal_secret: bool = False) -> dict:
    """JSON-compatible dict; class counts only when revealed (method 2's give away the parity preference)."""
    counts = {str(k): list(v) for k, v in sorted(report.class_counts.items())}
    return {
        "rounds_checked": report.rounds_checked,
        "violations": report.violations,
        "rate": report.rate,
        "threshold": report.threshold,
        "verdict": report.verdict.value,
        "class_counts": counts if reveal_secret else None,
    }


# --------------------------------------------------------------------------
# Channel actions


#: I, X, Y and Z, indexed as the transit noise draws them.
PAULI_STACK = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def apply_noise(state: np.ndarray, qubit: int, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Pass one transiting qubit through the noise channel (branch sampled).

    With p == 0 the input array is returned untouched, bit for bit.
    """
    if model.p == 0.0:
        return state
    if rng.random() >= model.p:
        return state
    k = int(rng.integers(4))
    if k == 0:
        return state
    return _apply_1q(PAULI_STACK[k], state, qubit)


@dataclass(frozen=True)
class EveInterceptRecord:
    """What the eavesdropper learned from one intercepted particle."""

    angle: float
    outcome: int


def eve_intercept_resend(
    state: np.ndarray, eve_angle: float, rng: np.random.Generator, mode: Mode = Mode.SPIN
) -> tuple[np.ndarray, EveInterceptRecord]:
    """Measure particle a in transit and forward its collapsed eigenstate.

    The post-measurement state of the projective measurement is already the
    product of Eve's eigenstate on particle a with the collapsed b,c pair,
    so it doubles as the resent state.
    """
    setting = MeasurementSetting(mode, eve_angle)
    outcome, post = measure_single(state, 1, setting, rng)
    return post, EveInterceptRecord(setting.phase, outcome)


# --------------------------------------------------------------------------
# Detection


def detect(transcript: Transcript, threshold: float) -> DetectionReport:
    """Count parity violations among all retained rounds.

    The statistic reconstructs the sender's measurement from the published
    bit and the sender's key (equivalently, it uses the actual outcome
    product) and compares the three-outcome product with the deterministic
    parity.  The verdict pools both parity classes, since the violation law
    does not depend on the class; counts per class are reported.
    """
    if not 0.0 <= threshold < math.inf:  # also rejects NaN, which compares false with every rate
        raise ValueError(f"threshold must be finite and non-negative, got {threshold!r}")
    # A discarded round has parity 0, so each class holds retained rounds only.
    counts = {}
    for p in (1, -1):
        in_class = transcript.parity == p
        counts[p] = (int(np.count_nonzero(in_class)), int(np.count_nonzero(in_class & transcript.violation)))
    checked, violations = counts[1][0] + counts[-1][0], counts[1][1] + counts[-1][1]
    if checked == 0:
        raise NoRetainedRounds("no retained rounds")
    rate = violations / checked
    verdict = Verdict.EVE_DETECTED if rate > threshold else Verdict.CLEAN
    return DetectionReport(
        rounds_checked=checked,
        violations=violations,
        rate=rate,
        threshold=threshold,
        verdict=verdict,
        class_counts=counts,
    )


# --------------------------------------------------------------------------
# Exact oracles


def _settings(mode: Mode, phases) -> tuple[MeasurementSetting, ...]:
    return tuple(MeasurementSetting(mode, p) for p in phases)


#: Outcome indices that break each parity: row 0 for +1, row 1 for -1.
_BROKEN = np.array([np.flatnonzero(PRODUCT_BY_INDEX != parity) for parity in (1, -1)])


@lru_cache(maxsize=8)
def _noise_branch_states(spec: GhzSpec) -> np.ndarray:
    """The state of ``spec`` after each of the 16 Pauli pairs on particles a and c, a's Pauli outermost, shape (16, 8).

    Built once per spec rather than on every oracle call.
    """
    prepared = ghz_state(spec)
    states = np.array([_apply_1q(pc, _apply_1q(pa, prepared, 1), 3) for pa in PAULI_STACK for pc in PAULI_STACK])
    states = _check_states(states)
    states.setflags(write=False)
    return states


def _violation_rates(spec: GhzSpec, triples, mode: Mode, eve_angles=None, noise_p: float = 0.0) -> list[float]:
    """Exact violation rate of each phase triple, all branches in one array pass.

    ``triples`` is a sequence or an (n, 3) array of phase triples;
    ``eve_angles`` is None (no eavesdropper) or one angle per triple.  Every
    noise branch on particles a and c, every eavesdropper outcome on
    particle a and every joint outcome is enumerated; each rate sums
    weight * P(Eve's outcome) * P(parity broken) over the branches in
    enumeration order.
    """
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {noise_p!r}")
    if len(triples) == 0:
        return []
    phases = np.asarray(triples, dtype=float)
    parities = parity_rule(spec, phases)
    if not parities.all():
        raise ValueError(f"phases {tuple(phases[parities == 0][0].tolist())} are not super-classical for {spec}")
    n = len(phases)
    # One eigenbasis per distinct angle, in one batch that bypasses core's
    # caches, which continuous angles would only fill.
    angles = np.concatenate([phases.ravel(), [] if eve_angles is None else eve_angles])
    angles, which = np.unique(normalize_angles(angles), return_inverse=True)
    bases = eigenbases(observables(mode, angles))

    # Every noise branch (at most 4^2), particle a's choice outermost: "replace with
    # probability p" means I, X, Y, Z each weigh p/4 on top of the 1-p pass-through,
    # and at p = 0 the pass-through is the only branch.
    choices = np.array([1.0 - 0.75 * noise_p, 0.25 * noise_p, 0.25 * noise_p, 0.25 * noise_p])
    if noise_p == 0.0:
        weights, states = np.ones(1), _check_states(ghz_state(spec).reshape(1, 8))
    else:
        weights, states = np.multiply.outer(choices, choices).ravel(), _noise_branch_states(spec)

    # Joint basis change per triple: the Kronecker product of the three
    # eigenbases, as _basis_change forms it, then its adjoint.
    v = bases[which[: 3 * n]].reshape(n, 3, 2, 2)
    ab = (v[:, 0, :, None, :, None] * v[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    u = (ab[:, :, None, :, None] * v[:, 2, None, :, None, :]).reshape(-1, 8, 8).conj().swapaxes(1, 2)

    if eve_angles is None:
        measured, factors = states[None], weights[None]
    else:
        # Eve's projection of particle a per distinct angle, branch and outcome
        # (+1 then -1), as project_single computes it.
        distinct, rows = np.unique(which[3 * n :], return_inverse=True)
        chis = bases[distinct].swapaxes(1, 2)  # (angle, outcome, component)
        amp = chis.conj()[:, None, :, None, :] @ states.reshape(1, -1, 1, 2, 4)
        prob = np.sum(np.abs(amp[..., 0, :]) ** 2, axis=-1)
        kept = prob > 1e-300
        post = (chis[:, None, :, :, None] @ amp).reshape(*prob.shape, 8)
        post /= np.sqrt(np.where(kept, prob, 1.0))[..., None]
        measured = post[rows].reshape(n, -1, 8)
        factors = np.where(kept, weights[:, None] * prob, 0.0)[rows].reshape(n, -1)

    joint = np.abs(np.matmul(u[:, None], measured[..., None])[..., 0]) ** 2
    broken = _BROKEN[(parities == -1).astype(np.intp)]
    terms = factors * np.take_along_axis(joint, broken[:, None, :], axis=-1).sum(axis=-1)
    totals = np.zeros(n)
    for column in terms.T:  # branch order; a skipped zero-probability branch adds 0.0
        totals += column
    return totals.tolist()


def exact_violation_rate(
    spec: GhzSpec,
    phases,
    mode: Mode = Mode.SPIN,
    *,
    eve_angle: float | None = None,
    noise_p: float = 0.0,
) -> float:
    """Exact probability that the outcome product breaks the round parity.

    Enumerates the depolarizing branches (probability ``noise_p`` each) on
    particles a and c, the two in transit, then (when ``eve_angle`` is
    given) the eavesdropper's two projective outcomes on particle a, then
    the full joint outcome distribution.  The phase triple must pin a
    deterministic parity, otherwise there is no prediction to violate.
    """
    eve_angles = None if eve_angle is None else [eve_angle]
    return _violation_rates(spec, [phases], mode, eve_angles, noise_p)[0]


@dataclass
class MenuRates:
    """Exact violation rate averaged over the retained menu triples."""

    retention: float
    overall: float | None


def _menu_rates(retained, rates) -> MenuRates:
    """Average per-triple rates over the retained menu triples.

    Each parity class's rates are summed apart and the two sums then added,
    the order the pinned sweep comment lines were recorded with.
    """
    sums = {1: 0.0, -1: 0.0}
    for (_, parity), rate in zip(retained, rates):
        sums[parity] += rate
    n = len(retained)
    return MenuRates(retention=n / 27.0, overall=(sums[1] + sums[-1]) / n if n else None)


def _guess_rates(spec: GhzSpec, retained, menu_angles, mode: Mode, noise_p: float):
    """Rates of each retained triple under each menu Eve angle (triple-major), and their per-triple means."""
    triples = [triple for triple, _ in retained for _ in menu_angles]
    rates = _violation_rates(spec, triples, mode, menu_angles * len(retained), noise_p)
    # Added left to right: Python 3.12's sum() of floats rounds differently.
    return rates, [(a + b + c) / 3.0 for a, b, c in zip(rates[0::3], rates[1::3], rates[2::3])]


def menu_attack_rates(
    spec: GhzSpec,
    menu,
    mode: Mode = Mode.SPIN,
    *,
    eve_angle: float | None = None,
    guess_from_menu: bool = False,
    noise_p: float = 0.0,
) -> MenuRates:
    """Average the exact oracle over retained menu draws (and Eve's guesses).

    All 27 ordered angle triples are enumerated; retained ones weigh equally.
    With ``guess_from_menu`` the rate per triple is additionally averaged
    over Eve guessing uniformly among the three menu angles.
    """
    retained = super_classical_triples(menu, spec)
    if guess_from_menu:
        _, rates = _guess_rates(spec, retained, tuple(normalize_angle(a) for a in menu), mode, noise_p)
    else:
        eve_angles = None if eve_angle is None else [eve_angle] * len(retained)
        rates = _violation_rates(spec, [triple for triple, _ in retained], mode, eve_angles, noise_p)
    return _menu_rates(retained, rates)


def continuous_attack_rate(
    spec: GhzSpec,
    preference: int,
    mode: Mode = Mode.SPIN,
    *,
    eve_angle: float | None = None,
    noise_p: float = 0.0,
    n_grid: int = 64,
) -> float:
    """Exact rate averaged over a uniformly announced sender angle.

    Used for sessions where the announced angles are drawn from the
    continuum; the receiver pins the parity at ``preference`` each round.
    The integrand is a low-degree trigonometric polynomial of the announced
    angle, so a uniform 64-point grid average is exact.
    """
    if n_grid < 1:
        raise ValueError(f"n_grid must be a positive integer, got {n_grid!r}")
    announced = TWO_PI * np.arange(n_grid) / n_grid
    triples = np.column_stack([announced, bob_phases(spec, announced, 0.0, preference), np.zeros(n_grid)])
    eve_angles = None if eve_angle is None else [eve_angle] * n_grid
    total = 0.0
    for rate in _violation_rates(spec, triples, mode, eve_angles, noise_p):
        total += rate
    return total / n_grid


def menu_attack_summary(spec: GhzSpec, menu, mode: Mode = Mode.SPIN, noise_p: float = 0.0) -> dict:
    """The three natural averagings of the intercept-resend violation rate.

    Returns the rate averaged jointly over retained menu draws and Eve's
    guesses, the menu-averaged rate per fixed Eve angle, and the
    guess-averaged rate per retained triple.
    """
    menu_angles = tuple(normalize_angle(a) for a in menu)
    retained = super_classical_triples(menu, spec)
    rates, guessed = _guess_rates(spec, retained, menu_angles, mode, noise_p)
    return {
        "joint_average": _menu_rates(retained, guessed).overall,
        "by_eve_angle": {a: _menu_rates(retained, rates[j::3]).overall for j, a in enumerate(menu_angles)},
        "by_triple": {triple: rate for (triple, _), rate in zip(retained, guessed)},
    }


# --------------------------------------------------------------------------
# Threshold calibration


def calibrate_threshold(config) -> float:
    """Midpoint threshold between the exact noise-only and noise-plus-Eve rates.

    Both rates come from the exact oracles under the configured noise: the
    noise-only rate with the eavesdropper switched off, the attacked rate
    under the configured strategy (an intercept-resend guessing from the
    menu, or averaged over announced angles, when none is configured), both
    over every retained round, as a session's verdict counts them.
    ``config`` is a protocol configuration; only its plain fields are read.
    """
    spec, mode, noise_p = config.spec, config.mode, config.noise.p
    eve_angle = config.eve.fixed_angle if config.eve.kind is EveKind.INTERCEPT_RESEND_A else None

    if int(config.method) == 1:
        r1 = menu_attack_rates(
            spec, config.menu, mode, eve_angle=eve_angle, guess_from_menu=eve_angle is None, noise_p=noise_p
        ).overall
        if r1 is None:
            raise NoRetainedRounds("menu retains no triple")
        r0 = menu_attack_rates(spec, config.menu, mode, noise_p=noise_p).overall
    else:
        preference = config.bob_parity_preference
        # Averaged over the announced angle, a fixed Eve angle and a random
        # one give the same exact rate; 0.0 stands in when none is set.
        r1 = continuous_attack_rate(
            spec, preference, mode, eve_angle=eve_angle if eve_angle is not None else 0.0, noise_p=noise_p
        )
        r0 = continuous_attack_rate(spec, preference, mode, noise_p=noise_p)
    return 0.5 * (r0 + r1)


# --------------------------------------------------------------------------
# Information-theoretic checks


def mutual_information(joint: dict) -> float:
    """I(V; K) in bits for a joint distribution keyed by (view, key) pairs."""
    pv: dict = {}
    pk: dict = {}
    for (v, k), p in joint.items():
        if p < 0:
            raise ValueError("joint probabilities must be non-negative")
        pv[v] = pv.get(v, 0.0) + p
        pk[k] = pk.get(k, 0.0) + p
    total = sum(pv.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint distribution sums to {total!r}, expected 1")
    info = 0.0
    for (v, k), p in joint.items():
        if p > 0.0:
            info += p * math.log2(p / (pv[v] * pk[k]))
    return info


def impersonation_view_joint(config, leak_alice_bit: bool = False) -> dict:
    """Exact joint distribution of (Eve-as-Charlie's view, key bit) for one round.

    The view is (phi_a, phi_c, D, C).  For menu-driven sessions the angles
    enumerate the retained menu draws; for continuous sessions they are an
    8x8 uniform grid of (phi_a, phi_c), with the receiver's angle solved
    for the parity preference (the angles are chosen independently of the
    key, so the grid cannot manufacture information).  ``leak_alice_bit``
    appends the sender's measured bit to the view, a sanity knob that must
    drive the information to one full bit.
    """
    spec, mode = config.spec, config.mode
    if int(config.method) == 1:
        retained = super_classical_triples(config.menu, spec)
        weighted = [(t, 1.0 / len(retained)) for t, _ in retained]
    else:
        fa, fc = TWO_PI * np.indices((8, 8)).reshape(2, -1) / 8
        fb = bob_phases(spec, fa, fc, config.bob_parity_preference)
        weighted = [(triple, 1.0 / len(fa)) for triple in zip(fa.tolist(), fb.tolist(), fc.tolist())]

    base = ghz_state(spec)
    joint: dict = {}
    for (fa, fb, fc), weight in weighted:
        probs = _joint_probs(base, _settings(mode, (fa, fb, fc)))
        for idx in range(8):
            p = float(probs[idx])
            if p == 0.0:
                continue
            a_bit = (idx >> 2) & 1
            c_bit = idx & 1
            for key_bit in (0, 1):
                d_bit = a_bit ^ key_bit
                view = (fa, fc, d_bit, c_bit)
                if leak_alice_bit:
                    view = view + (a_bit,)
                joint[(view, key_bit)] = joint.get((view, key_bit), 0.0) + 0.5 * weight * p
    return joint


def pad_reuse_information(
    spec_first: GhzSpec, settings_first, spec_second: GhzSpec, settings_second
) -> float:
    """I((D1, D2); K) when one key pads two different measured bits.

    D1 and D2 are the two published XOR bits of back-to-back sessions that
    reuse the key K; the senders' bits come from the exact outcome
    distributions of two independent rounds.
    """
    probs1 = _joint_probs(ghz_state(spec_first), settings_first)
    probs2 = _joint_probs(ghz_state(spec_second), settings_second)
    p_a1 = [float(probs1[[0, 1, 2, 3]].sum()), float(probs1[[4, 5, 6, 7]].sum())]
    p_a2 = [float(probs2[[0, 1, 2, 3]].sum()), float(probs2[[4, 5, 6, 7]].sum())]
    joint: dict = {}
    for key_bit in (0, 1):
        for a1 in (0, 1):
            for a2 in (0, 1):
                view = (a1 ^ key_bit, a2 ^ key_bit)
                p = 0.5 * p_a1[a1] * p_a2[a2]
                joint[(view, key_bit)] = joint.get((view, key_bit), 0.0) + p
    return mutual_information(joint)
