"""Executable key-distribution sessions over simulated quantum and classical channels.

Two methods are implemented.  In the menu-driven method the receiver
announces three allowed angles, everyone measures at a random menu angle,
and rounds whose announced angles fail to pin a deterministic parity are
discarded.  In the solved-angle method the sender and the third party
announce angles first and the receiver solves for his own angle so every
round carries a deterministic parity of his choosing.  Either way the key
travels through the XOR pipeline D = A xor K, E = D xor C, K = E xor B
(complemented when the round parity is -1).

Randomness discipline: every round derives independent substreams from
(seed, domain, round index, role), so round results do not depend on
execution order and identical seeds reproduce sessions bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .adversary import (
    DetectionReport,
    EveKind,
    EveStrategy,
    NoiseKind,
    NoiseModel,
    apply_noise,
    detect,
    detection_report_to_dict,
    eve_intercept_resend,
)
from .core import Mode, MeasurementSetting, normalize_angle, sample_joint
from .ghz import GhzSpec, ghz_state, is_super_classical, solve_bob_phase
from .transcript import SESSION_SCOPE, PublicMessage, RoundRecord, Transcript


class Method(enum.IntEnum):
    METHOD1 = 1
    METHOD2 = 2


class ConfigError(ValueError):
    """Invalid or inconsistent protocol configuration."""


class KeyExhausted(RuntimeError):
    """The round budget ran out before enough rounds were retained."""


# Stream derivation constants: entropy = (seed, run, domain[, index, role]).
_KEY_DOMAIN = 0
_ROUND_DOMAIN = 1
_ROLE_ALICE, _ROLE_BOB, _ROLE_CHARLIE, _ROLE_NOISE, _ROLE_EVE, _ROLE_MEASURE = range(6)

#: Method 1 keeps an 8x round budget per key bit by default; retention above
#: one third makes exhaustion a multi-sigma fluke at that multiplier.
MAX_ROUNDS_FACTOR_METHOD1 = 8


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a session needs; immutable so runs are reproducible.

    ``menu`` is required for METHOD1; METHOD2 ignores it unless
    ``method2_menu_angles`` opts in.  ``bob_parity_preference`` only matters
    for METHOD2.  ``threshold`` is the detection verdict threshold (0.0 when
    unset, the right strictness for noiseless channels); ``detection_parity``
    picks which parity class the verdict uses, defaulting to the preference
    class for METHOD2 and the +1 class for METHOD1.
    """

    method: Method
    spec: GhzSpec = GhzSpec("+++", -1)
    mode: Mode = Mode.SPIN
    menu: tuple[float, ...] | None = None
    bob_parity_preference: int = 1
    key_length: int = 128
    max_rounds: int | None = None
    seed: int = 0
    eve: EveStrategy = EveStrategy.none()
    noise: NoiseModel = NoiseModel.none()
    detection_parity: int | None = None
    threshold: float | None = None
    # METHOD2 draws announced angles from the continuum by default; opting in
    # to menu draws makes runs comparable with METHOD1 statistics.
    method2_menu_angles: bool = False

    def __post_init__(self):
        method = Method(self.method)
        object.__setattr__(self, "method", method)
        if self.key_length < 1:
            raise ConfigError(f"key_length must be positive, got {self.key_length}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.bob_parity_preference not in (1, -1):
            raise ConfigError("bob_parity_preference must be +1 or -1")
        if self.detection_parity not in (None, 1, -1):
            raise ConfigError("detection_parity must be None, +1 or -1")
        if self.threshold is not None and not 0.0 <= self.threshold:
            raise ConfigError("threshold must be non-negative")
        if self.menu is not None:
            menu = tuple(normalize_angle(a) for a in self.menu)
            if len(menu) != 3 or len(set(menu)) != 3:
                raise ConfigError(f"menu must hold 3 distinct angles, got {self.menu!r}")
            object.__setattr__(self, "menu", menu)
        if method is Method.METHOD1 and self.menu is None:
            raise ConfigError("METHOD1 requires an angle menu")
        if self.eve.kind is EveKind.INTERCEPT_RESEND_A and self.eve.fixed_angle is None and self.menu is None:
            raise ConfigError(
                "an eavesdropper guessing from the menu needs a configured menu; "
                "menu-less sessions take a fixed Eve angle"
            )
        if self.method2_menu_angles:
            if method is not Method.METHOD2:
                raise ConfigError("method2_menu_angles only applies to METHOD2")
            if self.menu is None:
                raise ConfigError("method2_menu_angles requires an angle menu")
        if self.max_rounds is None:
            default = self.key_length * (MAX_ROUNDS_FACTOR_METHOD1 if method is Method.METHOD1 else 1)
            object.__setattr__(self, "max_rounds", default)
        if self.max_rounds < self.key_length:
            raise ConfigError("max_rounds must be at least key_length")


@dataclass
class SessionResult:
    """Outcome of one session: the key on both ends plus detection statistics."""

    key_sent: tuple[int, ...]
    key_recovered: tuple[int, ...]
    alice_bits_inferred: tuple[int, ...]
    detection: DetectionReport
    rounds_used: int


# --------------------------------------------------------------------------
# Bit pipeline


def bit_of(outcome: int) -> int:
    """Fixed outcome-to-bit convention: +1 -> 0, -1 -> 1."""
    if outcome == 1:
        return 0
    if outcome == -1:
        return 1
    raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")


def encode_bit(a: int, k: int) -> int:
    """The published bit D = A xor K."""
    return (a ^ k) & 1


def recover_key_bit(d: int, c: int, b: int, parity: int) -> int:
    """Receiver-side key bit: (D xor C) xor B, complemented when parity is -1."""
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity!r}")
    k = (d ^ c ^ b) & 1
    return k if parity == 1 else k ^ 1


def recover_alice_bit(k: int, d: int) -> int:
    """The sender's measured bit reconstructed from the key and D."""
    return (k ^ d) & 1


# --------------------------------------------------------------------------
# Round physics


@dataclass(frozen=True)
class _RoundPhysics:
    phi_a: float
    phi_b: float
    phi_c: float
    retained: bool
    parity: int | None
    outcomes: tuple[int, int, int]


def _round_rng(base: tuple[int, int], index: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(base + (_ROUND_DOMAIN, index, role)))


def _play_round_physics(config: ProtocolConfig, base: tuple[int, int], index: int) -> _RoundPhysics:
    """One round's physics, self-contained: angle draws, transit, measurement.

    Depends only on (config, base entropy, round index), never on other
    rounds, so rounds can be replayed or evaluated in any order.
    """
    if config.method is Method.METHOD1:
        menu = config.menu
        phi_a = menu[_round_rng(base, index, _ROLE_ALICE).integers(3)]
        phi_b = menu[_round_rng(base, index, _ROLE_BOB).integers(3)]
        phi_c = menu[_round_rng(base, index, _ROLE_CHARLIE).integers(3)]
        parity = is_super_classical(config.spec, (phi_a, phi_b, phi_c))
    elif config.method2_menu_angles:
        menu = config.menu
        phi_a = menu[_round_rng(base, index, _ROLE_ALICE).integers(3)]
        phi_c = menu[_round_rng(base, index, _ROLE_CHARLIE).integers(3)]
        phi_b = solve_bob_phase(config.spec, phi_a, phi_c, config.bob_parity_preference)
        parity = config.bob_parity_preference
    else:
        phi_a = _round_rng(base, index, _ROLE_ALICE).uniform(0.0, 2.0 * math.pi)
        phi_c = _round_rng(base, index, _ROLE_CHARLIE).uniform(0.0, 2.0 * math.pi)
        phi_b = solve_bob_phase(config.spec, phi_a, phi_c, config.bob_parity_preference)
        parity = config.bob_parity_preference

    state = ghz_state(config.spec)
    if config.noise.kind is not NoiseKind.NONE:
        noise_rng = _round_rng(base, index, _ROLE_NOISE)
        state = apply_noise(state, 1, config.noise, noise_rng)  # particle a in transit
        state = apply_noise(state, 3, config.noise, noise_rng)  # particle c in transit
    if config.eve.kind is EveKind.INTERCEPT_RESEND_A:
        eve_rng = _round_rng(base, index, _ROLE_EVE)
        eve_angle = config.eve.fixed_angle
        if eve_angle is None:
            eve_angle = config.menu[eve_rng.integers(3)]
        state, _ = eve_intercept_resend(state, eve_angle, eve_rng, config.mode)

    settings = tuple(MeasurementSetting(config.mode, p) for p in (phi_a, phi_b, phi_c))
    outcomes = sample_joint(state, settings, _round_rng(base, index, _ROLE_MEASURE))
    return _RoundPhysics(phi_a, phi_b, phi_c, parity is not None, parity, outcomes)


# --------------------------------------------------------------------------
# Session assembly


def _draw_key_bits(config: ProtocolConfig, base: tuple[int, int]) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(base + (_KEY_DOMAIN,)))
    return rng.integers(0, 2, size=config.key_length)


def _run_session(
    config: ProtocolConfig, base: tuple[int, int], key_bits: np.ndarray | None = None
) -> tuple[SessionResult, Transcript]:
    if key_bits is None:
        key_bits = _draw_key_bits(config, base)

    menu_announced = config.method is Method.METHOD1 or config.method2_menu_angles
    transcript = Transcript(
        method=f"method{int(config.method)}",
        spec_label=str(config.spec),
        mode=config.mode.value,
        menu=config.menu if menu_announced else None,
        seed=base[0],
        key_length=config.key_length,
    )
    log = transcript.public_log
    if menu_announced:
        log.append(PublicMessage(SESSION_SCOPE, "bob", "menu", config.menu))

    recovered: list[int] = []
    inferred: list[int] = []
    key_index = 0
    rounds_used = 0
    for index in range(config.max_rounds):
        if key_index >= config.key_length:
            break
        ph = _play_round_physics(config, base, index)
        rounds_used += 1
        log.append(PublicMessage(index, "alice", "angle", ph.phi_a))
        log.append(PublicMessage(index, "charlie", "angle", ph.phi_c))
        record = RoundRecord(
            index=index,
            phi_a=ph.phi_a,
            phi_b=ph.phi_b,
            phi_c=ph.phi_c,
            retained=ph.retained,
            outcome_a=ph.outcomes[0],
            outcome_b=ph.outcomes[1],
            outcome_c=ph.outcomes[2],
            parity=ph.parity,
        )
        if not ph.retained:
            log.append(PublicMessage(index, "bob", "discard", True))
            transcript.rounds.append(record)
            continue

        key_bit = int(key_bits[key_index])
        key_index += 1
        a_bit, b_bit, c_bit = (bit_of(r) for r in ph.outcomes)
        d_bit = encode_bit(a_bit, key_bit)
        e_bit = d_bit ^ c_bit
        k_rec = recover_key_bit(d_bit, c_bit, b_bit, ph.parity)
        recovered.append(k_rec)
        inferred.append(recover_alice_bit(k_rec, d_bit))
        # Detection compares the sender's reconstructed bit (true key xor D)
        # against the deterministic parity; with the recovered key instead,
        # the check would hold identically and see nothing.
        a_check = recover_alice_bit(key_bit, d_bit)
        parity_bit = 0 if ph.parity == 1 else 1
        record.d_bit, record.c_bit, record.e_bit, record.b_bit = d_bit, c_bit, e_bit, b_bit
        record.violation = (a_check ^ b_bit ^ c_bit) != parity_bit
        log.append(PublicMessage(index, "alice", "d_bit", d_bit))
        log.append(PublicMessage(index, "charlie", "c_bit", c_bit))
        transcript.rounds.append(record)

    if key_index < config.key_length:
        raise KeyExhausted(
            f"only {key_index} of {config.key_length} key bits placed in {config.max_rounds} rounds"
        )

    parity_class = config.detection_parity
    if parity_class is None:
        if config.method is Method.METHOD2:
            parity_class = config.bob_parity_preference
        else:
            present = {r.parity for r in transcript.rounds if r.retained}
            parity_class = 1 if 1 in present else -1
    report = detect(transcript, config.threshold if config.threshold is not None else 0.0, parity_class)

    result = SessionResult(
        key_sent=tuple(int(b) for b in key_bits),
        key_recovered=tuple(recovered),
        alice_bits_inferred=tuple(inferred),
        detection=report,
        rounds_used=rounds_used,
    )
    return result, transcript


def run_method1(config: ProtocolConfig, seed: int | None = None) -> tuple[SessionResult, Transcript]:
    """Run a menu-driven session; ``seed`` overrides config.seed when given."""
    if config.method is not Method.METHOD1:
        raise ConfigError("run_method1 requires a METHOD1 configuration")
    return _run_session(config, (config.seed if seed is None else seed, 1))


def run_method2(config: ProtocolConfig, seed: int | None = None) -> tuple[SessionResult, Transcript]:
    """Run a solved-angle session; every round is retained."""
    if config.method is not Method.METHOD2:
        raise ConfigError("run_method2 requires a METHOD2 configuration")
    return _run_session(config, (config.seed if seed is None else seed, 1))


def run_three_party(
    config: ProtocolConfig,
    seed: int | None = None,
    second_config: ProtocolConfig | None = None,
) -> tuple[tuple[SessionResult, Transcript], tuple[SessionResult, Transcript]]:
    """Distribute one key to both other parties by running the protocol twice.

    After the first session the roles rotate and the first run's recovered
    key is what the new sender transmits, so a clean double run leaves all
    three parties holding the same key.  ``second_config`` lets the rotated
    trio change strategy knobs (an eavesdropper present in one run only,
    say); it defaults to the first config and must keep the key length.
    """
    s = config.seed if seed is None else seed
    first = _run_session(config, (s, 1))
    cfg2 = config if second_config is None else second_config
    if cfg2.key_length != config.key_length:
        raise ConfigError("second run must relay a key of the same length")
    second = _run_session(cfg2, (s, 2), key_bits=np.array(first[0].key_recovered, dtype=int))
    return first, second


# --------------------------------------------------------------------------
# Serialization


def bits_to_str(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def session_result_to_dict(result: SessionResult, reveal_secret: bool = False) -> dict:
    """JSON-compatible dict; key material only appears when revealed."""
    return {
        "key_sent": bits_to_str(result.key_sent) if reveal_secret else None,
        "key_recovered": bits_to_str(result.key_recovered) if reveal_secret else None,
        "alice_bits_inferred": bits_to_str(result.alice_bits_inferred) if reveal_secret else None,
        "key_match": result.key_recovered == result.key_sent,
        "rounds_used": result.rounds_used,
        "detection": detection_report_to_dict(result.detection),
    }
