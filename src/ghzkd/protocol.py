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

Randomness discipline: every draw is one 64-bit word of a counter hash,
``_round_rng``, a pure function of (seed, run, domain, round index, role,
draw number) in the style of SplitMix64, so round results do not depend on
execution order or batching and identical seeds reproduce sessions bit for
bit.  A draw's number never depends on an earlier draw's value: angle,
menu-pick and measurement streams read draw 0, transit noise reads draws 0
and 1 for particle a and 2 and 3 for particle c, and the eavesdropper reads
her menu guess at draw 0 and her outcome at draw 1.  ``random()`` is a
word's top 53 bits over 2**53, a Pauli its top two bits, a menu pick the
word mod 3 and a key bit its top bit.  ``tests/reference.py`` recomputes
every word in Python ints.  A round's outcomes are drawn from the
closed-form law of its 8 outcomes, ``ghz.outcome_probs``, so no round
builds a state vector.  A method 1 round has one of 27 menu triples and one
of 16 transit Pauli pairs, so its angles, parity and, without an
eavesdropper, its outcome CDF are read from one table per (menu, spec),
``_menu_law``, whose rows are that law at each single setting.  Method 2
rounds, rounds with an eavesdropper (her angle is any float) and the
Monte-Carlo estimator compute the law per round.

Sessions are runs 1 and 2; the Monte-Carlo estimator,
``monte_carlo_violation_rate``, plays run 0's rounds at one fixed triple.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import DetectionReport, EveKind, EveStrategy, NoiseModel, detect, detection_report_to_dict
from .core import OUTCOME_TRIPLES, Mode, normalize_angle, normalize_angles

# Rounds no longer call ``sample_joint``, ``apply_noise`` or
# ``eve_intercept_resend``; the names stay importable here because
# bench/spans.py traces them as ``protocol.<name>``.
from .adversary import apply_noise, eve_intercept_resend  # noqa: F401
from .core import sample_joint  # noqa: F401
from .ghz import GhzSpec, bob_phases, is_super_classical, outcome_probs, parity_rule
from .transcript import Transcript


class Method(enum.IntEnum):
    METHOD1 = 1
    METHOD2 = 2


class ConfigError(ValueError):
    """Invalid or inconsistent protocol configuration."""


class KeyExhausted(RuntimeError):
    """The round budget ran out before enough rounds were retained."""


# Stream coordinates: a word is a hash of (seed, run, domain, index, role, draw).
_KEY_DOMAIN = 0
_ROUND_DOMAIN = 1
_ROLE_ALICE, _ROLE_BOB, _ROLE_CHARLIE, _ROLE_NOISE, _ROLE_EVE, _ROLE_MEASURE = range(6)
#: Role columns of one batch's draw-0 words, and the fixed draw slots of the
#: noise stream (a's hit and Pauli, then c's) and of the eavesdropper's (guess, outcome).
_METHOD1_ROLES = np.array([[_ROLE_ALICE], [_ROLE_BOB], [_ROLE_CHARLIE], [_ROLE_MEASURE]], dtype=np.uint64)
_METHOD2_ROLES = np.array([[_ROLE_ALICE], [_ROLE_CHARLIE], [_ROLE_MEASURE]], dtype=np.uint64)
_NOISE_DRAWS = np.arange(4, dtype=np.uint64)[:, None]
_EVE_DRAWS = np.arange(2, dtype=np.uint64)[:, None]
#: A rejected menu pick redraws at draw number 2**32, then 2 * 2**32, and so on.
_REDRAW = 1 << 32

# SplitMix64's increment and finalizer multipliers (Steele, Lea and Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014), as masked
# Python ints for the prefix and as uint64 scalars for the arrays, so numpy's
# legacy value-based casting and NEP 50 give the same uint64 arithmetic.
_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA_U64, _MIX1_U64, _MIX2_U64, _U64_MAX = (np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2, _MASK64))

#: Method 1 keeps an 8x round budget per key bit by default; retention above
#: one third makes exhaustion a multi-sigma fluke at that multiplier.
MAX_ROUNDS_FACTOR_METHOD1 = 8

#: Most rounds played in one batch; bounds a long run's working memory.
_MAX_BATCH = 4096

#: The 8 outcome triples, row k being basis index k's.
_OUTCOMES = np.array(OUTCOME_TRIPLES)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a session needs; immutable so runs are reproducible.

    ``menu`` is required for METHOD1; METHOD2 draws its angles from the
    continuum and reads a menu only for an eavesdropper guessing from it.
    ``bob_parity_preference`` only matters for METHOD2, and ``seed`` seeds
    every stream.  ``threshold`` is the detection verdict threshold (0.0 when
    unset, the right strictness for noiseless channels).
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
        if type(self.key_length) is not int or self.key_length < 1:
            raise ConfigError(f"key_length must be a positive integer, got {self.key_length!r}")
        if type(self.seed) is not int or self.seed < 0:  # a bool is not a seed
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.bob_parity_preference not in (1, -1):
            raise ConfigError("bob_parity_preference must be +1 or -1")
        # A bool threshold would be written as true, an infinite one as Infinity, which is no JSON.
        if self.threshold is not None and (type(self.threshold) is bool or not 0.0 <= self.threshold < math.inf):
            raise ConfigError(f"threshold must be finite and non-negative, got {self.threshold!r}")
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
        if type(self.max_rounds) is not int:
            raise ConfigError(f"max_rounds must be an integer, got {self.max_rounds!r}")
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


def _mix(h: int, word: int) -> int:
    """One absorbing step of the prefix, in Python ints: the SplitMix64 finalizer of (h xor word) + gamma."""
    z = ((h ^ word) + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_words(h, words) -> np.ndarray:
    """``_mix`` elementwise in uint64, broadcasting ``h`` against ``words``; wraps mod 2**64."""
    z = np.bitwise_xor(h, words, dtype=np.uint64)
    z += _GAMMA_U64
    z ^= z >> np.uint64(30)
    z *= _MIX1_U64
    z ^= z >> np.uint64(27)
    z *= _MIX2_U64
    z ^= z >> np.uint64(31)
    return z


def _round_rng(base: tuple[int, int], domain: int, indices, roles=0, draws=0) -> np.ndarray:
    """The 64-bit words of the streams (seed, run, domain, index, role) at draw numbers ``draws``.

    ``base`` is (seed, run); ``indices``, ``roles`` and ``draws`` broadcast
    together.  A word is a pure function of its six coordinates, a counter
    hash: the prefix absorbs the seed's little-endian 64-bit words, their
    count, the run and the domain, once per call in Python ints, and then
    each stream absorbs its index, its role and the draw number elementwise.
    """
    seed, run = base
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    seed_words = [(seed >> shift) & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)]
    h = 0
    for word in (*seed_words, len(seed_words), run, domain):
        h = _mix(h, word)
    z = _mix_words(np.uint64(h), np.asarray(indices, dtype=np.uint64))
    z = _mix_words(z, np.asarray(roles, dtype=np.uint64))
    return _mix_words(z, np.asarray(draws, dtype=np.uint64))


def _unit(words: np.ndarray) -> np.ndarray:
    """``random()`` of each word: its top 53 bits over 2**53, in [0, 1)."""
    return (words >> np.uint64(11)) * 2.0**-53


def _menu_picks(base: tuple[int, int], indices, roles, words: np.ndarray) -> np.ndarray:
    """Each stream's uniform pick from a 3-angle menu, ``w % 3`` of its draw-0 word ``words``.

    2**64 - 1 is divisible by 3, so the words below it pick exactly
    uniformly.  The one word 2**64 - 1 redraws at draw 2**32 (then 2 * 2**32,
    and so on), a number no fixed slot reaches.
    """
    draw = 0
    while (rejected := words == _U64_MAX).any():
        draw += _REDRAW
        words = np.where(rejected, _round_rng(base, _ROUND_DOMAIN, indices, roles, draw), words)
    return (words % np.uint64(3)).astype(np.intp)


def _transit_paulis(config: ProtocolConfig, base: tuple[int, int], indices: np.ndarray) -> np.ndarray:
    """The Pauli (0 = I, 1 = X, 2 = Y, 3 = Z) transit noise puts on particles a and c, shape (2, n).

    Each round's noise stream has fixed slots: particle a is hit when draw
    0's ``random()`` is below p and then takes the Pauli of draw 1's top two
    bits; particle c reads draws 2 and 3 the same way.  With p = 0 nothing
    is drawn.
    """
    p = config.noise.p
    if p == 0.0:
        return np.zeros((2, len(indices)), dtype=np.intp)
    words = _round_rng(base, _ROUND_DOMAIN, indices, _ROLE_NOISE, _NOISE_DRAWS)
    return np.where(_unit(words[0::2]) < p, (words[1::2] >> np.uint64(62)).astype(np.intp), 0)


def _eve_draws(config: ProtocolConfig, base: tuple[int, int], indices: np.ndarray):
    """Each round's intercept angle, as an index into the menu (0 for a fixed angle), and her outcome draw.

    A guessing eavesdropper picks from the menu at draw 0 of her stream;
    her outcome's ``random()`` is draw 1 either way.
    """
    words = _round_rng(base, _ROUND_DOMAIN, indices, _ROLE_EVE, _EVE_DRAWS)
    if config.eve.fixed_angle is not None:
        return np.zeros(len(indices), dtype=np.intp), _unit(words[1])
    return _menu_picks(base, indices, _ROLE_EVE, words[0]), _unit(words[1])


class _MenuLaw(NamedTuple):
    """The 27 settings of one (menu, spec), row ``code`` being the pick code 9a + 3b + c.

    ``cdf`` holds the outcome CDF of each (code, Pauli on a, Pauli on c) at
    row ``16 * code + 4 * pa + pc``.  Every array is read-only.
    """

    triples: np.ndarray
    parity: np.ndarray
    retention: float
    cdf: np.ndarray


@functools.lru_cache(maxsize=16)
def _menu_law(menu: tuple[float, ...], spec: GhzSpec) -> _MenuLaw:
    """The menu table of a normalized menu, built once per (menu, spec).

    Its rows are ``parity_rule`` and ``outcome_probs`` of each single
    setting, elementwise arithmetic on the same floats, so a round that reads
    the table gets the bits of the per-round law.
    """
    triples = np.array(list(itertools.product(menu, repeat=3)))
    parity = parity_rule(spec, triples)
    paulis = np.tile(np.array(list(itertools.product(range(4), repeat=2))).T, len(triples))
    cdf = np.cumsum(outcome_probs(spec, np.repeat(triples, 16, axis=0), paulis), axis=1)
    for array in (triples, parity, cdf):
        array.flags.writeable = False
    return _MenuLaw(triples, parity, np.count_nonzero(parity) / 27.0, cdf)


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
    A method 1 round reads its angles and parity from the menu table.
    """
    n = stop - start
    indices = np.arange(start, stop, dtype=np.uint64)
    if config.method is Method.METHOD1:
        words = _round_rng(base, _ROUND_DOMAIN, indices, _METHOD1_ROLES)
        picks = _menu_picks(base, indices, _METHOD1_ROLES[:3], words[:3])
        codes = 9 * picks[0] + 3 * picks[1] + picks[2]
        law = _menu_law(config.menu, config.spec)
        phases, parity = law.triples.take(codes, axis=0), law.parity[codes]
    else:
        words = _round_rng(base, _ROUND_DOMAIN, indices, _METHOD2_ROLES)
        phi_a, phi_c = 2.0 * math.pi * _unit(words[:2])
        phases = np.column_stack([phi_a, bob_phases(config.spec, phi_a, phi_c, config.bob_parity_preference), phi_c])
        codes = None
        parity = np.full(n, config.bob_parity_preference)
    u = _unit(words[-1])

    outcomes = _transit_and_measure(config, base, indices, phases, u, codes)
    return phases, parity != 0, outcomes, parity


def _transit_and_measure(config: ProtocolConfig, base: tuple[int, int], indices: np.ndarray, phases, u, codes=None):
    """The outcome triples (n, 3) of rounds ``indices``, measured at ``phases`` with draws ``u``.

    Transit puts noise on particles a and c and then lets an intercept-resend
    eavesdropper measure particle a, with the draws from each round's own
    streams.  ``ghz.outcome_probs`` gives each round's law over its 8
    outcomes, and ``u`` picks one by inverse CDF.  A method 1 round without
    an eavesdropper reads that CDF from the menu table at its pick code in
    ``codes``; an eavesdropper's angle is any float, so her rounds keep the
    per-round law.
    """
    paulis = _transit_paulis(config, base, indices)
    if config.eve.kind is EveKind.INTERCEPT_RESEND_A:
        guess, eve_u = _eve_draws(config, base, indices)
        eve_angles = np.array(config.menu if config.eve.fixed_angle is None else (config.eve.fixed_angle,))[guess]
        eve_x = np.where(eve_u < 0.5, 1, -1)  # either outcome has probability 1/2
        cdf = np.cumsum(outcome_probs(config.spec, phases, paulis, eve_angles, eve_x), axis=1)
    elif config.method is Method.METHOD1:
        cdf = _menu_law(config.menu, config.spec).cdf.take(16 * codes + 4 * paulis[0] + paulis[1], axis=0)
    else:
        cdf = np.cumsum(outcome_probs(config.spec, phases, paulis), axis=1)
    # As searchsorted(cdf, u, side="right") per round.
    ks = np.minimum((cdf <= u[:, None]).sum(axis=1), 7)
    return _OUTCOMES.take(ks, axis=0)


def _fixed_triple_outcomes(config: ProtocolConfig, phases, n_rounds: int, seed: int):
    """The outcomes of rounds 0 to ``n_rounds - 1`` of run 0 at ``phases``, in blocks of at most ``_MAX_BATCH``.

    A round reads its streams as a session round does, but draws no angles.
    """
    base = (seed, 0)
    angles = normalize_angles(phases)
    for start in range(0, n_rounds, _MAX_BATCH):
        indices = np.arange(start, min(n_rounds, start + _MAX_BATCH), dtype=np.uint64)
        u = _unit(_round_rng(base, _ROUND_DOMAIN, indices, _ROLE_MEASURE))
        yield _transit_and_measure(config, base, indices, np.tile(angles, (len(indices), 1)), u)


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
    """Key bit j is the top bit of the key domain's word at index j."""
    words = _round_rng(base, _KEY_DOMAIN, np.arange(config.key_length, dtype=np.uint64))
    return (words >> np.uint64(63)).astype(np.int64)


def _run_session(
    config: ProtocolConfig, base: tuple[int, int], key_bits: np.ndarray | None = None
) -> tuple[SessionResult, Transcript]:
    if key_bits is None:
        key_bits = _draw_key_bits(config, base)

    # One method 1 ``_play_rounds`` call costs about 0.045 ms whatever its
    # size (the counter hash for four roles, menu picks, table reads and
    # pick) and each round adds about 0.09 us (16- and 1024-round calls in
    # process, 2-vCPU x86 host, Python 3.11, numpy 2.4), so a batch is sized
    # to place every missing key bit at 4 sigma and a method 1 session nearly
    # always needs one call.  The rounds that place ``wanted`` bits at the
    # menu's exact retention r are negative binomial, mean wanted / r and
    # standard deviation sqrt(wanted (1 - r)) / r; the batch is the mean plus
    # 4 standard deviations.  Method 2 (r = 1) plays exactly the key length.
    # The session ends right after the round that places the last bit, and a
    # round depends on its index alone, so batch boundaries never change a
    # session.
    batches = []
    placed = 0
    retention = _menu_law(config.menu, config.spec).retention if config.method is Method.METHOD1 else 1.0
    start = 0
    while placed < config.key_length and start < config.max_rounds:
        wanted = config.key_length - placed
        margin = 4.0 * math.sqrt(wanted * (1.0 - retention))
        size = math.ceil((wanted + margin) / retention) if retention > 0 else _MAX_BATCH
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

    report = detect(transcript, config.threshold if config.threshold is not None else 0.0)

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
        "detection": detection_report_to_dict(result.detection, reveal_secret),
    }
