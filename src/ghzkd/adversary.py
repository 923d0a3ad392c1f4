"""Eavesdropper strategies, channel noise, violation detection, and exact oracles.

The oracles enumerate every branch (noise operator choices, the
eavesdropper's projective outcomes, and the parties' joint outcomes), so
they are exact up to float rounding.  Each oracle call is one batched
enumeration, ``_violation_rates``, over all of its phase triples, whose
array operations and summation order reproduce a one-state-at-a-time
enumeration bit for bit.  A Monte-Carlo estimator with the same channel
pipeline sits alongside them; tests and sweeps compare the two rather than
trusting either alone.

Channel pipeline for a round, matching the protocol runner: the prepared
state passes noise on particles a and c (the two in transit), then an
intercept-resend eavesdropper measures particle a, then the parties measure.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Mode,
    MeasurementSetting,
    PRODUCT_BY_INDEX,
    TWO_PI,
    _check_states,
    _joint_probs,
    _qubit_axis,
    apply_1q_batch,
    eigenbases,
    measure_single,
    normalize_angle,
    observables,
    project_single,  # no caller here; bench/spans.py traces the name
    sample_joint,
)
from .ghz import GhzSpec, ghz_state, is_super_classical, solve_bob_phase, super_classical_triples
from .transcript import Transcript


class EveKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND_A = "intercept-a"
    IMPERSONATE_CHARLIE = "impersonate-charlie"


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

    @classmethod
    def impersonate_charlie(cls) -> "EveStrategy":
        return cls(EveKind.IMPERSONATE_CHARLIE)


class NoiseKind(enum.Enum):
    NONE = "none"
    DEPOLARIZING = "depolarizing"


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit transit noise.

    Depolarizing(p): with probability p the transiting qubit is replaced by
    the maximally mixed state, realized by applying one of I, X, Y, Z chosen
    uniformly (branch sampled, so the engine stays on pure states).  At p=1
    the parity expectation of a deterministic round is exactly 0, giving a
    violation rate of 1/2.
    """

    kind: NoiseKind = NoiseKind.NONE
    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability must be in [0, 1], got {self.p!r}")
        if self.kind is NoiseKind.NONE and self.p != 0.0:
            raise ValueError("NoiseKind.NONE requires p == 0")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(NoiseKind.NONE, 0.0)

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseModel":
        return cls(NoiseKind.DEPOLARIZING, float(p))


class Verdict(enum.Enum):
    CLEAN = "clean"
    EVE_DETECTED = "eve-detected"


class NoRetainedRounds(RuntimeError):
    """Raised when detection has no retained rounds in the designated class."""


@dataclass
class DetectionReport:
    """Violation statistics for one parity class, plus both classes' counts."""

    rounds_checked: int
    violations: int
    rate: float
    threshold: float
    verdict: Verdict
    parity_class: int
    class_counts: dict = field(default_factory=dict)  # {+1: (checked, violations), -1: ...}


def detection_report_to_dict(report: DetectionReport) -> dict:
    return {
        "rounds_checked": report.rounds_checked,
        "violations": report.violations,
        "rate": report.rate,
        "threshold": report.threshold,
        "verdict": report.verdict.value,
        "parity_class": report.parity_class,
        "class_counts": {str(k): list(v) for k, v in sorted(report.class_counts.items())},
    }


# --------------------------------------------------------------------------
# Channel actions


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


#: The Paulis stacked, so an array of indices picks one per round.
PAULI_STACK = np.stack(_PAULIS)


def _apply_1q(state: np.ndarray, op: np.ndarray, qubit: int) -> np.ndarray:
    ax = _qubit_axis(qubit)
    t = state.reshape(2, 2, 2)
    return np.moveaxis(np.tensordot(op, t, axes=([1], [ax])), 0, ax).reshape(8)


def apply_noise(state: np.ndarray, qubit: int, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Pass one transiting qubit through the noise channel (branch sampled).

    With p == 0 the input array is returned untouched, bit for bit.
    """
    if model.kind is NoiseKind.NONE or model.p == 0.0:
        return state
    if rng.random() >= model.p:
        return state
    k = int(rng.integers(4))
    if k == 0:
        return state
    return _apply_1q(state, _PAULIS[k], qubit)


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


def intercept_resend_batch(states: np.ndarray, bases: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``eve_intercept_resend`` for many rounds at once.

    Row i measures particle a of ``states[i]`` (shape (n, 2, 2, 2)) in the
    eigenbasis ``bases[i]`` (shape (n, 2, 2), +1 and -1 eigenvectors as
    columns), takes outcome +1 when ``u[i]`` is below its Born probability,
    as ``measure_single`` does with its draw, and returns the renormalized
    collapsed states.
    """
    _check_states(states.reshape(len(states), 8))
    rows = np.arange(len(states))
    amps = apply_1q_batch(bases.conj().swapaxes(1, 2), states, 1)
    probs = (np.abs(amps) ** 2).reshape(len(states), 2, 4).sum(axis=2)
    branch = (u >= probs[:, 0]).astype(np.intp)
    chi = bases[rows, :, branch]
    norm = np.sqrt(probs[rows, branch])
    return chi[:, :, None, None] * amps[rows, branch][:, None] / norm[:, None, None, None]


def eve_impersonate_charlie(transcript: Transcript) -> list[dict]:
    """The view an eavesdropper playing Charlie's role ends up with.

    Per retained round that is exactly {phi_a, phi_c, D, C}: her own angle
    and outcome plus the two announced bits.  Nothing else reaches her.
    """
    kept = transcript.retained
    phi_a, _, phi_c = transcript.phases[kept].T.tolist()
    d_bit, c_bit = transcript.bits[kept, :2].T.tolist()
    return [{"phi_a": a, "phi_c": c, "d_bit": d, "c_bit": cb} for a, c, d, cb in zip(phi_a, phi_c, d_bit, c_bit)]


# --------------------------------------------------------------------------
# Detection


def detect(transcript: Transcript, threshold: float, parity_class: int = 1) -> DetectionReport:
    """Count parity violations among retained rounds of one parity class.

    The statistic reconstructs the sender's measurement from the published
    bit and the sender's key (equivalently, it uses the actual outcome
    product) and compares the three-outcome product with the deterministic
    parity.  The verdict uses only the designated class; counts for both
    classes are reported.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if parity_class not in (1, -1):
        raise ValueError(f"parity_class must be +1 or -1, got {parity_class!r}")
    # A discarded round has parity 0, so each class holds retained rounds only.
    counts = {}
    for p in (1, -1):
        in_class = transcript.parity == p
        counts[p] = (int(np.count_nonzero(in_class)), int(np.count_nonzero(in_class & transcript.violation)))
    checked, violations = counts[parity_class]
    if checked == 0:
        raise NoRetainedRounds(f"no retained rounds with parity {parity_class:+d}")
    rate = violations / checked
    verdict = Verdict.EVE_DETECTED if rate > threshold else Verdict.CLEAN
    return DetectionReport(
        rounds_checked=checked,
        violations=violations,
        rate=rate,
        threshold=threshold,
        verdict=verdict,
        parity_class=parity_class,
        class_counts=counts,
    )


# --------------------------------------------------------------------------
# Exact oracles


def _settings(mode: Mode, phases) -> tuple[MeasurementSetting, ...]:
    return tuple(MeasurementSetting(mode, p) for p in phases)


def _noise_branch_states(spec: GhzSpec, noise_p: float, noise_qubits) -> tuple[list[float], np.ndarray]:
    """Weight and state of every noise branch (at most 4^3), first qubit's choice outermost."""
    # "Replace with probability p" means I, X, Y, Z each carry weight p/4,
    # on top of the 1-p pass-through.
    choices = ((1.0, None),)
    if noise_p != 0.0:
        choices = ((1.0 - 0.75 * noise_p, None),) + tuple((0.25 * noise_p, op) for op in _PAULIS[1:])
    branches = [(1.0, ghz_state(spec))]
    for qubit in noise_qubits:
        branches = [
            (weight * w, state if op is None else _apply_1q(state, op, qubit))
            for weight, state in branches
            for w, op in choices
        ]
    weights, states = zip(*branches)
    return list(weights), _check_states(np.array(states))


def _violation_rates(
    spec: GhzSpec, triples, mode: Mode, eve_angles=None, noise_p: float = 0.0, noise_qubits=(1, 3)
) -> list[float]:
    """Exact violation rate of each phase triple, all branches in one array pass.

    ``eve_angles`` is None (no eavesdropper) or one angle per triple.  Every
    noise branch, every eavesdropper outcome on particle a and every joint
    outcome is enumerated; each rate sums weight * P(Eve's outcome) *
    P(parity broken) over the branches in enumeration order.
    """
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {noise_p!r}")
    parities = []
    for phases in triples:
        parity = is_super_classical(spec, phases)
        if parity is None:
            raise ValueError(f"phases {tuple(phases)} are not super-classical for {spec}")
        parities.append(parity)
    if not triples:
        return []
    phases = [[normalize_angle(p) for p in triple] for triple in triples]
    eves = None if eve_angles is None else [normalize_angle(a) for a in eve_angles]
    # One eigenbasis per distinct angle, in one batch that bypasses core's
    # caches, which continuous angles would only fill.
    angles = list(dict.fromkeys([p for triple in phases for p in triple] + (eves or [])))
    bases = dict(zip(angles, eigenbases(observables(mode, angles))))
    weights, states = _noise_branch_states(spec, noise_p, noise_qubits)

    # Joint basis change per triple: the Kronecker product of the three
    # eigenbases, as _basis_change forms it, then its adjoint.
    v = np.array([[bases[p] for p in triple] for triple in phases])
    ab = (v[:, 0, :, None, :, None] * v[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    u = (ab[:, :, None, :, None] * v[:, 2, None, :, None, :]).reshape(-1, 8, 8).conj().swapaxes(1, 2)

    if eves is None:
        measured, factors = states[None], np.array(weights)[None]
    else:
        # Eve's projection of particle a per distinct angle, branch and outcome
        # (+1 then -1), as project_single computes it.
        index = {a: i for i, a in enumerate(dict.fromkeys(eves))}
        chis = np.array([bases[a] for a in index]).swapaxes(1, 2)  # (angle, outcome, component)
        amp = chis.conj()[:, None, :, None, :] @ states.reshape(1, -1, 1, 2, 4)
        prob = np.sum(np.abs(amp[..., 0, :]) ** 2, axis=-1)
        kept = prob > 1e-300
        post = (chis[:, None, :, :, None] @ amp).reshape(*prob.shape, 8)
        post /= np.sqrt(np.where(kept, prob, 1.0))[..., None]
        rows = [index[a] for a in eves]
        measured = post[rows].reshape(len(phases), -1, 8)
        factors = np.where(kept, np.array(weights)[:, None] * prob, 0.0)[rows].reshape(len(phases), -1)

    joint = np.abs(np.matmul(u[:, None], measured[..., None])[..., 0]) ** 2
    broken = np.array([np.flatnonzero(PRODUCT_BY_INDEX != parity) for parity in parities])
    terms = factors * np.take_along_axis(joint, broken[:, None, :], axis=-1).sum(axis=-1)
    totals = np.zeros(len(phases))
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
    noise_qubits: tuple[int, ...] = (1, 3),
) -> float:
    """Exact probability that the outcome product breaks the round parity.

    Enumerates noise branches on the transiting qubits, then (optionally)
    the eavesdropper's two projective outcomes on particle a, then the full
    joint outcome distribution.  The phase triple must pin a deterministic
    parity, otherwise there is no prediction to violate.
    """
    eve_angles = None if eve_angle is None else [eve_angle]
    return _violation_rates(spec, [phases], mode, eve_angles, noise_p, noise_qubits)[0]


@dataclass
class MenuRates:
    """Exact menu-averaged violation rates, split by parity class."""

    retention: float
    by_class: dict  # {+1: rate or None, -1: rate or None}
    overall: float | None


def _menu_rates(retained, rates) -> MenuRates:
    """Average per-triple rates over the retained menu triples, per parity class and overall."""
    sums = {1: [0.0, 0], -1: [0.0, 0]}
    for (_, parity), rate in zip(retained, rates):
        sums[parity][0] += rate
        sums[parity][1] += 1
    by_class = {k: (s / n if n else None) for k, (s, n) in sums.items()}
    total_n = sums[1][1] + sums[-1][1]
    overall = (sums[1][0] + sums[-1][0]) / total_n if total_n else None
    return MenuRates(retention=total_n / 27.0, by_class=by_class, overall=overall)


def _guess_rates(spec: GhzSpec, retained, menu_angles, mode: Mode, noise_p: float):
    """Rates of each retained triple under each menu Eve angle (triple-major), and their per-triple means."""
    triples = [triple for triple, _ in retained for _ in menu_angles]
    rates = _violation_rates(spec, triples, mode, menu_angles * len(retained), noise_p)
    return rates, [sum(rates[i : i + 3]) / 3.0 for i in range(0, len(rates), 3)]


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
    announced = [TWO_PI * k / n_grid for k in range(n_grid)]
    triples = [(phi_a, solve_bob_phase(spec, phi_a, 0.0, preference), 0.0) for phi_a in announced]
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
# Monte-Carlo estimator (same channel pipeline as the oracles)


def monte_carlo_violation_rate(
    spec: GhzSpec,
    phases,
    mode: Mode = Mode.SPIN,
    *,
    eve_angle: float | None = None,
    noise: NoiseModel = NoiseModel.none(),
    n_rounds: int = 2000,
    seed: int = 0,
) -> tuple[int, int]:
    """(violations, rounds) sampled at a fixed super-classical phase triple."""
    parity = is_super_classical(spec, phases)
    if parity is None:
        raise ValueError(f"phases {tuple(phases)} are not super-classical for {spec}")
    settings = _settings(mode, phases)
    base = ghz_state(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    for _ in range(n_rounds):
        state = base
        if noise.p > 0.0:
            state = apply_noise(state, 1, noise, rng)
            state = apply_noise(state, 3, noise, rng)
        if eve_angle is not None:
            state, _ = eve_intercept_resend(state, eve_angle, rng, mode)
        r1, r2, r3 = sample_joint(state, settings, rng)
        violations += int(r1 * r2 * r3 != parity)
    return violations, n_rounds


# --------------------------------------------------------------------------
# Threshold calibration


def calibrate_threshold(config) -> float:
    """Midpoint threshold between the exact noise-only and noise-plus-Eve rates.

    Both rates come from the exact oracles under the configured noise: the
    noise-only rate with the eavesdropper switched off, the attacked rate
    under the configured strategy (an intercept-resend guessing from the
    menu, or averaged over announced angles, when none is configured).
    ``config`` is a protocol configuration; only its plain fields are read.
    """
    spec, mode, noise_p = config.spec, config.mode, config.noise.p
    eve_angle = config.eve.fixed_angle if config.eve.kind is EveKind.INTERCEPT_RESEND_A else None

    if int(config.method) == 1:
        attacked = menu_attack_rates(
            spec, config.menu, mode, eve_angle=eve_angle, guess_from_menu=eve_angle is None, noise_p=noise_p
        ).by_class
        parity_class = config.detection_parity
        if parity_class is None:
            parity_class = 1 if attacked[1] is not None else -1
        r1 = attacked[parity_class]
        if r1 is None:
            raise NoRetainedRounds(f"menu retains no rounds with parity {parity_class:+d}")
        r0 = menu_attack_rates(spec, config.menu, mode, noise_p=noise_p).by_class[parity_class]
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


def impersonation_view_joint(
    config, phi_a: float | None = None, phi_c: float | None = None, leak_alice_bit: bool = False, n_grid: int = 8
) -> dict:
    """Exact joint distribution of (Eve-as-Charlie's view, key bit) for one round.

    The view is (phi_a, phi_c, D, C).  For menu-driven sessions the angles
    enumerate the retained menu draws; for continuous sessions they are
    either the given pair or a uniform grid (the angles are chosen
    independently of the key, so the grid cannot manufacture information).
    ``leak_alice_bit`` appends the sender's measured bit to the view, a
    sanity knob that must drive the information to one full bit.
    """
    spec, mode = config.spec, config.mode
    if int(config.method) == 1:
        retained = super_classical_triples(config.menu, spec)
        weighted = [(t, 1.0 / len(retained)) for t, _ in retained]
    elif phi_a is not None and phi_c is not None:
        phi_b = solve_bob_phase(spec, phi_a, phi_c, config.bob_parity_preference)
        weighted = [((phi_a, phi_b, phi_c), 1.0)]
    else:
        weighted = []
        for i, j in itertools.product(range(n_grid), repeat=2):
            fa, fc = TWO_PI * i / n_grid, TWO_PI * j / n_grid
            fb = solve_bob_phase(spec, fa, fc, config.bob_parity_preference)
            weighted.append(((fa, fb, fc), 1.0 / n_grid**2))

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
