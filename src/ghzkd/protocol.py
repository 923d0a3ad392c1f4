"""Executable key-distribution sessions over simulated quantum and classical channels.

Two methods are implemented.  In the menu-driven method the receiver
announces three allowed angles, everyone measures at a random menu angle,
and rounds whose announced angles fail to pin a deterministic parity are
discarded.  In the solved-angle method the sender and the third party
announce angles first and the receiver solves for his own angle, for a
whole batch of rounds in one array expression (``ghz.bob_phases``), so every
round carries a deterministic parity of his choosing.  Either way the key
travels through the XOR pipeline D = A xor K, E = D xor C, K = E xor B
(complemented when the round parity is -1).

Randomness discipline: every round derives independent substreams from
(seed, run, domain, round index, role), so round results do not depend on
execution order and identical seeds reproduce sessions bit for bit.  The
streams are numpy's ``default_rng(SeedSequence(...))``, unchanged, but a
round reads at most three outputs of each (angles and measurement one,
noise up to three, the eavesdropper up to two), and ``streams`` derives
those for a whole batch of rounds at once; ``tests/test_streams.py`` pins
that module to numpy's SeedSequence, PCG64 and Lemire algorithms.  Only a
bounded integer that numpy's Lemire rule rejects (odds 2**-32) sends its
round to a real numpy generator.

Sessions are runs 1 and 2; the Monte-Carlo estimator,
``monte_carlo_violation_rate``, plays run 0's rounds at one fixed triple.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .adversary import DetectionReport, EveKind, EveStrategy, NoiseModel, detect, detection_report_to_dict
from .adversary import transit_batch
from .core import _MAX_BATCH, Mode, normalize_angle, normalize_angles, sample_joint_batch

# Rounds no longer call ``sample_joint``, ``apply_noise`` or
# ``eve_intercept_resend``; the names stay importable here because
# bench/spans.py traces them as ``protocol.<name>``.
from .adversary import apply_noise, eve_intercept_resend  # noqa: F401
from .core import sample_joint  # noqa: F401
from .ghz import GhzSpec, bob_phases, ghz_state, is_super_classical, menu_quality, parity_rule
from .transcript import Transcript


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

    ``menu`` is required for METHOD1; METHOD2 draws its angles from the
    continuum and reads a menu only for an eavesdropper guessing from it.
    ``bob_parity_preference`` only matters for METHOD2, and ``seed`` seeds
    every stream.  ``threshold`` is the detection verdict threshold (0.0 when
    unset, the right strictness for noiseless channels).  The verdict checks
    the preference class for METHOD2, and for METHOD1 the +1 class, or the
    -1 class when no retained round has parity +1.
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
    threshold: float | None = None

    def __post_init__(self):
        method = Method(self.method)
        object.__setattr__(self, "method", method)
        if self.key_length < 1:
            raise ConfigError(f"key_length must be positive, got {self.key_length}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.bob_parity_preference not in (1, -1):
            raise ConfigError("bob_parity_preference must be +1 or -1")
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


def _round_rng(base: tuple[int, int], index: int, role: int) -> np.random.Generator:
    """A round's stream as a real numpy generator, for a draw ``streams`` does not emulate."""
    return np.random.default_rng(np.random.SeedSequence(base + (_ROUND_DOMAIN, index, role)))


def _menu_picks(base: tuple[int, int], start: int, role: int, heads: np.ndarray) -> np.ndarray:
    """Each round's ``_round_rng(base, index, role).integers(3)``, from its stream head.

    Where numpy's Lemire rule would reject the first draw (odds 2**-32) the
    round asks its real generator instead.
    """
    picks, rejected = streams.integers3(heads)
    for j in np.flatnonzero(rejected):
        picks[j] = _round_rng(base, start + int(j), role).integers(3)
    return picks


def _transit_paulis(config: ProtocolConfig, base: tuple[int, int], indices: np.ndarray) -> np.ndarray:
    """The Pauli (0 = I, 1 = X, 2 = Y, 3 = Z) transit noise puts on particles a and c, shape (2, n).

    The draws of ``apply_noise`` on a and then c from each round's noise
    stream: a particle is hit when ``random()`` is below p and then takes
    ``integers(4)``.  After a hit on a, that bounded integer reads output 2's
    low half and numpy keeps the high half for c's; c's ``random()`` is then
    output 3.  With p = 0 nothing is drawn.
    """
    paulis = np.zeros((2, len(indices)), dtype=np.intp)
    p = config.noise.p
    if p == 0.0:
        return paulis
    out = streams.stream_outputs(base + (_ROUND_DOMAIN,), indices, (_ROLE_NOISE,), 3)[:, 0]
    low, high = streams.halves(out)
    hit_a = streams.random(out[0]) < p
    hit_c = np.where(hit_a, streams.random(out[2]), streams.random(out[1])) < p
    paulis[0, hit_a] = streams.integers4(low[1, hit_a])
    paulis[1, hit_c] = streams.integers4(np.where(hit_a, high[1], low[2])[hit_c])
    return paulis


def _eve_draws(config: ProtocolConfig, base: tuple[int, int], indices: np.ndarray):
    """Each round's intercept angle, as an index into the menu (0 for a fixed angle), and her draw.

    A guessing eavesdropper takes ``integers(3)`` (output 1's low half) and
    then ``random()`` (output 2); a fixed-angle one takes ``random()`` alone.
    Where Lemire's rule would reject the guess the round asks its real
    generator for both draws.
    """
    prefix = base + (_ROUND_DOMAIN,)
    if config.eve.fixed_angle is not None:
        head = streams.stream_heads(prefix, indices, (_ROLE_EVE,))[0]
        return np.zeros(len(indices), dtype=np.intp), streams.random(head)
    out = streams.stream_outputs(prefix, indices, (_ROLE_EVE,), 2)[:, 0]
    guess, rejected = streams.integers3(out[0])
    u = streams.random(out[1])
    for j in np.flatnonzero(rejected):
        rng = _round_rng(base, int(indices[j]), _ROLE_EVE)
        guess[j], u[j] = rng.integers(3), rng.random()
    return guess, u


def _play_rounds(config: ProtocolConfig, base: tuple[int, int], start: int, stop: int):
    """Rounds ``start`` to ``stop - 1`` as columns: angle draws, transit, measurement.

    Returns ``(phases, retained, outcomes, parity)``, row j being round
    ``start + j``: the angles (m, 3), the retention flags, the +1/-1 outcomes
    (m, 3) and the deterministic parity, 0 on a discarded round.  The session
    computes the bits of retained rounds from them.

    Each round reads only its own streams, so a round's result depends on
    (config, base entropy, round index) alone, never on the batch it is
    played in or on other rounds.  Every stream's draws are derived for the
    whole batch at once; transit and measurement are ``_transit_and_measure``.
    """
    n = stop - start
    indices = np.arange(start, stop, dtype=np.uint64)
    if config.method is Method.METHOD1:
        roles = (_ROLE_ALICE, _ROLE_BOB, _ROLE_CHARLIE)
        heads = streams.stream_heads(base + (_ROUND_DOMAIN,), indices, roles + (_ROLE_MEASURE,))
        picks = np.array([_menu_picks(base, start, role, h) for role, h in zip(roles, heads)])
        phases = np.array(config.menu)[picks].T
        parity = parity_rule(config.spec, phases)
        # Rounds with the same menu picks have the same settings triple.
        triple_id = np.ravel_multi_index(tuple(picks), (3, 3, 3))
    else:
        heads = streams.stream_heads(base + (_ROUND_DOMAIN,), indices, (_ROLE_ALICE, _ROLE_CHARLIE, _ROLE_MEASURE))
        phi_a, phi_c = streams.uniform_2pi(heads[0]), streams.uniform_2pi(heads[1])
        phases = np.column_stack([phi_a, bob_phases(config.spec, phi_a, phi_c, config.bob_parity_preference), phi_c])
        parity = np.full(n, config.bob_parity_preference)
        triple_id = np.arange(n)  # continuous angles: every round its own triple
    u = streams.random(heads[-1])

    outcomes = _transit_and_measure(config, base, indices, phases, triple_id, u)
    return phases, parity != 0, outcomes, parity


def _transit_and_measure(config: ProtocolConfig, base: tuple[int, int], indices: np.ndarray, phases, triple_id, u):
    """The outcome triples (n, 3) of rounds ``indices``, measured at ``phases``.

    Transit (noise on particles a and c, then the intercept on a) is
    ``adversary.transit_batch``, with the noise and eavesdropper draws from
    each round's own streams; the measurement is ``core.sample_joint_batch``
    with draws ``u``.  Rounds with equal ``triple_id`` share a settings triple.
    """
    prepared = ghz_state(config.spec).reshape(2, 2, 2)
    eve_angles = eve_u = None
    if config.eve.kind is EveKind.INTERCEPT_RESEND_A:
        guess, eve_u = _eve_draws(config, base, indices)
        eve_angles = np.array(config.menu if config.eve.fixed_angle is None else (config.eve.fixed_angle,))[guess]
    rows, states = transit_batch(prepared, _transit_paulis(config, base, indices), config.mode, eve_angles, eve_u)
    return sample_joint_batch(prepared, rows, states, config.mode, phases, triple_id, u)


def _fixed_triple_outcomes(config: ProtocolConfig, phases, n_rounds: int, seed: int):
    """The outcomes of rounds 0 to ``n_rounds - 1`` of run 0 at ``phases``, in blocks of at most ``_MAX_BATCH``.

    A round reads its streams as a session round does, but draws no angles.
    """
    base = (seed, 0)
    angles = normalize_angles(phases)
    for start in range(0, n_rounds, _MAX_BATCH):
        indices = np.arange(start, min(n_rounds, start + _MAX_BATCH), dtype=np.uint64)
        u = streams.random(streams.stream_heads(base + (_ROUND_DOMAIN,), indices, (_ROLE_MEASURE,))[0])
        n = len(indices)
        yield _transit_and_measure(config, base, indices, np.tile(angles, (n, 1)), np.zeros(n, np.intp), u)


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
    """(violations, rounds) of ``n_rounds`` session rounds played at a fixed super-classical phase triple.

    An eavesdropper, if any, intercepts particle a at ``eve_angle``.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be a positive integer, got {n_rounds!r}")
    parity = is_super_classical(spec, phases)
    if parity is None:
        raise ValueError(f"phases {tuple(phases)} are not super-classical for {spec}")
    eve = EveStrategy.none() if eve_angle is None else EveStrategy.intercept_resend_a(eve_angle)
    config = ProtocolConfig(Method.METHOD2, spec, mode, eve=eve, noise=noise)
    blocks = _fixed_triple_outcomes(config, phases, n_rounds, seed)
    return sum(int(np.count_nonzero(outcomes.prod(axis=1) != parity)) for outcomes in blocks), n_rounds


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

    # Rounds are played in batches sized to the key bits still missing at the
    # menu's exact retention, so few rounds are computed past the last one
    # used; the session ends right after the round that places the last bit.
    batches = []
    placed = 0
    retention = menu_quality(config.menu, config.spec) if config.method is Method.METHOD1 else 1.0
    start = 0
    while placed < config.key_length and start < config.max_rounds:
        wanted = config.key_length - placed
        size = math.ceil(wanted / retention) if retention > 0 else _MAX_BATCH
        stop = min(config.max_rounds, start + min(size, _MAX_BATCH))
        batch = _play_rounds(config, base, start, stop)
        kept = np.flatnonzero(batch[1])
        if len(kept) >= wanted:
            batch = tuple(column[: kept[wanted - 1] + 1] for column in batch)
        batches.append(batch)
        placed += min(len(kept), wanted)
        start = stop

    if placed < config.key_length:
        raise KeyExhausted(
            f"only {placed} of {config.key_length} key bits placed in {config.max_rounds} rounds"
        )

    phases, retained, outcomes, parity = (np.concatenate(column) for column in zip(*batches))
    # The bit pipeline over the retained rounds, in round order, with
    # ``bit_of``'s convention (outcome -1 is bit 1): D = A xor K, E = D xor C,
    # and the key bit E xor B, complemented on parity -1 as in ``recover_key_bit``.
    a, b, c = (outcomes[retained] == -1).T.astype(np.int64)
    parity_bit = (parity[retained] == -1).astype(np.int64)
    key = np.asarray(key_bits, dtype=np.int64)
    d = encode_bit(a, key)
    e = d ^ c
    recovered = e ^ b ^ parity_bit
    bits = np.zeros((len(retained), 4), dtype=np.int64)
    bits[retained] = np.column_stack([d, c, e, b])
    # Detection compares the sender's reconstructed bit (true key xor D)
    # against the deterministic parity; with the recovered key instead, the
    # check would hold identically and see nothing.
    violation = np.zeros(len(retained), dtype=bool)
    violation[retained] = (recover_alice_bit(key, d) ^ b ^ c) != parity_bit

    transcript = Transcript(
        method=f"method{int(config.method)}",
        spec_label=str(config.spec),
        mode=config.mode.value,
        menu=config.menu if config.method is Method.METHOD1 else None,
        seed=base[0],
        key_length=config.key_length,
        phases=phases,
        retained=retained,
        outcomes=outcomes,
        parity=parity,
        bits=bits,
        violation=violation,
    )

    if config.method is Method.METHOD2:
        parity_class = config.bob_parity_preference
    else:
        parity_class = 1 if (parity == 1).any() else -1
    report = detect(transcript, config.threshold if config.threshold is not None else 0.0, parity_class)

    result = SessionResult(
        key_sent=tuple(key.tolist()),
        key_recovered=tuple(recovered.tolist()),
        alice_bits_inferred=tuple(recover_alice_bit(recovered, d).tolist()),
        detection=report,
        rounds_used=len(retained),
    )
    return result, transcript


def run_method1(config: ProtocolConfig) -> tuple[SessionResult, Transcript]:
    """Run a menu-driven session from ``config.seed``."""
    if config.method is not Method.METHOD1:
        raise ConfigError("run_method1 requires a METHOD1 configuration")
    return _run_session(config, (config.seed, 1))


def run_method2(config: ProtocolConfig) -> tuple[SessionResult, Transcript]:
    """Run a solved-angle session from ``config.seed``; every round is retained."""
    if config.method is not Method.METHOD2:
        raise ConfigError("run_method2 requires a METHOD2 configuration")
    return _run_session(config, (config.seed, 1))


def run_three_party(
    config: ProtocolConfig, second_config: ProtocolConfig | None = None
) -> tuple[tuple[SessionResult, Transcript], tuple[SessionResult, Transcript]]:
    """Distribute one key to both other parties by running the protocol twice.

    After the first session the roles rotate and the first run's recovered
    key is what the new sender transmits, so a clean double run leaves all
    three parties holding the same key.  Both runs read ``config.seed``, as
    runs 1 and 2 of its streams.  ``second_config`` lets the rotated trio
    change strategy knobs (an eavesdropper present in one run only, say); it
    defaults to the first config and must keep the key length and the seed.
    """
    cfg2 = config if second_config is None else second_config
    if cfg2.key_length != config.key_length:
        raise ConfigError("second run must relay a key of the same length")
    if cfg2.seed != config.seed:
        raise ConfigError("second run must use the first run's seed")
    first = _run_session(config, (config.seed, 1))
    second = _run_session(cfg2, (config.seed, 2), key_bits=np.array(first[0].key_recovered, dtype=int))
    return first, second


# --------------------------------------------------------------------------
# Serialization


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def bits_to_str(bits) -> str:
    """'0'/'1' text of a sequence or array of 0/1 bits."""
    return np.asarray(bits, dtype=np.uint8).tobytes().translate(_BIT_CHARS).decode("ascii")


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
