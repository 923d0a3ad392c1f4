"""Protocol sessions: bit pipeline, runners, transcripts, information flow."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import StreamRng

from ghzkd import protocol
from ghzkd.adversary import EveKind, EveStrategy, NoiseModel, Verdict, apply_noise, eve_intercept_resend
from ghzkd.core import Mode, MeasurementSetting, joint_outcome_distribution, sample_joint
from ghzkd.ghz import (
    GhzSpec,
    compatible_outcomes,
    ghz_state,
    is_super_classical,
    menu_quality,
    outcome_probs,
    parity_rule,
    solve_bob_phase,
    super_classical_triples,
)
from ghzkd.protocol import (
    ConfigError,
    KeyExhausted,
    Method,
    ProtocolConfig,
    _MAX_BATCH,
    _fixed_triple_outcomes,
    _play_rounds,
    bit_of,
    encode_bit,
    monte_carlo_violation_rate,
    recover_alice_bit,
    recover_key_bit,
    run_method1,
    run_method2,
    run_three_party,
    session_result_to_dict,
)
from ghzkd.transcript import PUBLIC_KINDS, transcript_to_csv, transcript_to_json

MENU = (0.0, math.pi / 2, math.pi)


def _m1(**kw):
    kw.setdefault("menu", MENU)
    return ProtocolConfig(method=Method.METHOD1, **kw)


def _m2(**kw):
    return ProtocolConfig(method=Method.METHOD2, **kw)


# --------------------------------------------------------------------------
# bit pipeline


def test_bit_convention():
    assert bit_of(1) == 0
    assert bit_of(-1) == 1
    assert {bit_of(1), bit_of(-1)} == {0, 1}
    with pytest.raises(ValueError):
        bit_of(0)


def test_encode_recover_worked_columns():
    # 4-bit walkthrough, parity +1 throughout:
    # K=1011, A=0110, D=1101, C=0010, E=1111, B=0100
    key = [1, 0, 1, 1]
    a = [0, 1, 1, 0]
    c = [0, 0, 1, 0]
    b = [0, 1, 0, 0]
    d = [encode_bit(ai, ki) for ai, ki in zip(a, key)]
    assert d == [1, 1, 0, 1]
    e = [di ^ ci for di, ci in zip(d, c)]
    assert e == [1, 1, 1, 1]
    recovered = [recover_key_bit(di, ci, bi, 1) for di, ci, bi in zip(d, c, b)]
    assert recovered == key
    assert [recover_alice_bit(ki, di) for ki, di in zip(recovered, d)] == a


def test_recover_key_bit_xnor_branch():
    assert recover_key_bit(1, 0, 0, 1) == 1
    assert recover_key_bit(0, 1, 0, 1) == 1
    assert recover_key_bit(1, 0, 0, -1) == 0
    with pytest.raises(ValueError):
        recover_key_bit(1, 0, 0, 0)


def test_recovery_identity_exhaustive():
    # Whenever A ^ B ^ C equals the parity bit, the pipeline returns K exactly.
    for a, k, c, parity in itertools.product((0, 1), (0, 1), (0, 1), (1, -1)):
        parity_bit = 0 if parity == 1 else 1
        b = parity_bit ^ a ^ c
        assert recover_key_bit(encode_bit(a, k), c, b, parity) == k


def test_reconstruction_reproduces_parity_bit():
    for d, c, b, parity in itertools.product((0, 1), (0, 1), (0, 1), (1, -1)):
        a_rec = recover_alice_bit(recover_key_bit(d, c, b, parity), d)
        assert a_rec ^ c ^ b == (0 if parity == 1 else 1)


# --------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(method=Method.METHOD1, menu=None)
    with pytest.raises(ConfigError):
        _m1(menu=(0.0, 0.0, math.pi))
    with pytest.raises(ConfigError):  # -1e-17 is 0 mod 2 pi, not 2 pi
        _m1(menu=(0.0, -1e-17, 3.14159))
    with pytest.raises(ConfigError):
        _m1(key_length=0)
    with pytest.raises(ConfigError):
        _m1(seed=-1)
    # A bool seed would write "seed": true into the header; a fractional
    # length would run, or fail only when the rounds are drawn.
    bad_inputs = (
        {"seed": True},
        {"seed": False},
        {"key_length": 4.5},
        {"key_length": True},
        {"key_length": 4, "max_rounds": 10.5},
        # A bool threshold would be written as true, an infinite one as
        # Infinity, which strict JSON parsers reject.
        {"threshold": True},
        {"threshold": math.inf},
        {"threshold": 1e400},
        {"threshold": float("nan")},
    )
    for bad in bad_inputs:
        with pytest.raises(ConfigError):
            _m1(**bad)
    with pytest.raises(ConfigError):
        _m1(max_rounds=4, key_length=8)
    with pytest.raises(ConfigError):
        _m2(bob_parity_preference=0)
    with pytest.raises(ConfigError, match="guessing from the menu needs a configured menu"):
        _m2(eve=EveStrategy.intercept_resend_a())
    cfg = _m1(key_length=16)
    assert cfg.max_rounds == 16 * 8
    assert _m2(key_length=16).max_rounds == 16


def test_method_mismatch_rejected():
    with pytest.raises(ConfigError):
        run_method1(_m2(key_length=4))
    with pytest.raises(ConfigError):
        run_method2(_m1(key_length=4))


# --------------------------------------------------------------------------
# method 1


def test_method1_honest_session_recovers_key():
    for seed in (1, 7, 123):
        result, transcript = run_method1(_m1(key_length=64, seed=seed))
        assert result.key_recovered == result.key_sent
        assert result.alice_bits_inferred == tuple(
            bit_of(r.outcome_a) for r in transcript.rounds if r.retained
        )
        assert result.detection.violations == 0
        assert result.detection.verdict is Verdict.CLEAN
        assert all(not r.violation for r in transcript.rounds)


def test_method1_retained_fraction():
    # Session stops on the key_length-th retained round: rounds_used is a
    # sum of geometrics with mean k/q and variance k(1-q)/q^2, q = 14/27.
    k = 256
    result, _ = run_method1(_m1(key_length=k, seed=5))
    q = 14 / 27
    mean = k / q
    sigma = math.sqrt(k * (1 - q)) / q
    assert abs(result.rounds_used - mean) <= 4 * sigma


def test_method1_key_exhausted_on_hopeless_menu():
    cfg = _m1(menu=(0.1, 0.2, 0.3), key_length=4)
    with pytest.raises(KeyExhausted):
        run_method1(cfg)


def test_method1_retained_rounds_never_violate_exactly():
    # Stronger than sampling: the joint distribution puts zero mass outside
    # the compatible set for every retained menu triple...
    spec = GhzSpec("+++", -1)
    psi = ghz_state(spec)
    rng = np.random.default_rng(77)
    for triple, parity in super_classical_triples(MENU, spec):
        settings = tuple(MeasurementSetting(Mode.SPIN, p) for p in triple)
        dist = joint_outcome_distribution(psi, settings)
        off_support = sum(p for t, p in dist.items() if t not in compatible_outcomes(parity))
        assert off_support <= 1e-14
        # ... and 10^5 draws per triple from that distribution confirm it.
        probs = np.array([dist[t] for t in sorted(dist)])
        allowed = {i for i, t in enumerate(sorted(dist)) if t in compatible_outcomes(parity)}
        draws = rng.choice(8, size=100_000, p=probs / probs.sum())
        assert set(np.unique(draws)) <= allowed


def test_method1_no_violations_over_many_rounds():
    result, transcript = run_method1(_m1(key_length=2048, seed=11))
    assert result.key_recovered == result.key_sent
    assert sum(r.violation for r in transcript.rounds) == 0


# --------------------------------------------------------------------------
# method 2


def test_method2_uses_exactly_key_length_rounds():
    for preference in (1, -1):
        cfg = _m2(key_length=48, seed=3, bob_parity_preference=preference)
        result, transcript = run_method2(cfg)
        assert result.rounds_used == 48
        assert result.key_recovered == result.key_sent
        assert all(r.retained and r.parity == preference for r in transcript.rounds)
        assert result.detection.rounds_checked == result.detection.class_counts[preference][0] == 48
        assert result.detection.violations == 0


def test_method2_menu_is_ignored():
    cfg = ProtocolConfig(method=Method.METHOD2, menu=MENU, key_length=8, seed=2)
    result, transcript = run_method2(cfg)
    assert result.key_recovered == result.key_sent
    assert transcript.menu is None  # not part of a solved-angle transcript


# --------------------------------------------------------------------------
# determinism and round independence


def test_sessions_are_deterministic():
    a = run_method1(_m1(key_length=32, seed=9))
    b = run_method1(_m1(key_length=32, seed=9))
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert transcript_to_json(a[1], True) == transcript_to_json(b[1], True)
    c = run_method1(_m1(key_length=32, seed=10))
    assert c[0].key_sent != a[0].key_sent or c[1].rounds != a[1].rounds


def test_round_physics_independent_of_execution_order():
    cfg = _m1(
        key_length=24,
        seed=13,
        eve=EveStrategy.intercept_resend_a(),
        noise=NoiseModel.depolarizing(0.2),
        threshold=1.0,  # keep the verdict out of the way
    )
    _, transcript = run_method1(cfg)
    base = (cfg.seed, 1)
    for record in reversed(transcript.rounds):
        phases, retained, outcomes, parity = _play_rounds(cfg, base, record.index, record.index + 1)
        assert tuple(phases[0].tolist()) == (record.phi_a, record.phi_b, record.phi_c)
        assert tuple(outcomes[0].tolist()) == (record.outcome_a, record.outcome_b, record.outcome_c)
        assert (retained[0], parity[0]) == (record.retained, record.parity or 0)


def _scalar_round(cfg, base, index, phases=None):
    """Reference engine: one round at a time, each stream read in draw order from the reference hash.

    With ``phases`` the round is measured at that fixed triple and draws no angles.
    """

    def rng(role, draw=0):
        return StreamRng(*base, 1, index, role, draw)

    if phases is not None:
        phi_a, phi_b, phi_c = phases
        parity = is_super_classical(cfg.spec, phases)
    elif cfg.method is Method.METHOD1:
        phi_a, phi_b, phi_c = (cfg.menu[rng(role).integers(3)] for role in (0, 1, 2))
        parity = is_super_classical(cfg.spec, (phi_a, phi_b, phi_c))
    else:
        phi_a, phi_c = (2.0 * math.pi * rng(role).random() for role in (0, 2))
        phi_b = solve_bob_phase(cfg.spec, phi_a, phi_c, cfg.bob_parity_preference)
        parity = cfg.bob_parity_preference
    state = ghz_state(cfg.spec)
    paulis = [0, 0]
    if cfg.noise.p > 0:
        # Noise on a reads draws 0 and 1 of the noise stream, noise on c draws 2 and 3.
        for k, qubit in enumerate((1, 3)):
            noise_rng = _PauliSpy(rng(3, 2 * k))
            state = apply_noise(state, qubit, cfg.noise, noise_rng)
            paulis[k] = noise_rng.last
    if cfg.eve.kind is EveKind.INTERCEPT_RESEND_A:
        # Eve guesses at draw 0 and measures with draw 1.
        guessing = cfg.eve.fixed_angle is None
        eve_rng = rng(4, 0 if guessing else 1)
        eve_angle = cfg.menu[eve_rng.integers(3)] if guessing else cfg.eve.fixed_angle
        state, _ = eve_intercept_resend(state, eve_angle, eve_rng, cfg.mode)
    settings = tuple(MeasurementSetting(cfg.mode, p) for p in (phi_a, phi_b, phi_c))
    outcomes = sample_joint(state, settings, rng(5))
    return (phi_a, phi_b, phi_c), parity is not None, parity, outcomes, tuple(paulis)


class _PauliSpy:
    """A generator that remembers the last Pauli index ``apply_noise`` drew from it."""

    def __init__(self, rng):
        self.rng, self.last = rng, 0

    def random(self):
        return self.rng.random()

    def integers(self, high):
        self.last = int(self.rng.integers(high))
        return self.last


_NOISY = NoiseModel.depolarizing(0.2)
_FULL_NOISE = NoiseModel.depolarizing(1.0)
#: Long enough that every (Pauli on a, Pauli on c) pair occurs.
_EVERY_PAULI_PAIR = _m2(
    key_length=600, seed=8, spec=GhzSpec("-+-", -1), noise=NoiseModel.depolarizing(0.5), threshold=1.0
)
#: The same for a menu session without an eavesdropper, whose rounds read the menu table's Pauli rows.
_METHOD1_EVERY_PAULI_PAIR = _m1(
    key_length=300, seed=9, spec=GhzSpec("++-", 1), noise=NoiseModel.depolarizing(0.5), threshold=1.0
)


def _run(cfg):
    return (run_method1 if cfg.method is Method.METHOD1 else run_method2)(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        _m1(key_length=40, seed=5 << 32 | 7, noise=_NOISY, eve=EveStrategy.intercept_resend_a(), threshold=1.0),
        _m1(key_length=40, seed=2, spec=GhzSpec("+-+", 1), mode=Mode.POLARIZATION),
        _m2(key_length=40, seed=3, noise=_NOISY, eve=EveStrategy.intercept_resend_a(0.3), threshold=1.0),
        _m2(
            key_length=40,
            seed=2**64 + 1,
            menu=MENU,
            bob_parity_preference=-1,
            noise=_NOISY,
            eve=EveStrategy.intercept_resend_a(),
            threshold=1.0,
        ),
        _m1(key_length=40, seed=4, noise=_FULL_NOISE, eve=EveStrategy.intercept_resend_a(), threshold=1.0),
        _m2(key_length=40, seed=6, noise=_FULL_NOISE, threshold=1.0),
        _m2(
            key_length=40,
            seed=7,
            mode=Mode.POLARIZATION,
            spec=GhzSpec("++-", 1),
            eve=EveStrategy.intercept_resend_a(2.0),
            threshold=1.0,
        ),
        _EVERY_PAULI_PAIR,
        _METHOD1_EVERY_PAULI_PAIR,
    ],
    ids=[
        "method1-noise-eve",
        "method1-clean",
        "method2-noise-eve",
        "method2-menu-noise-eve",
        "method1-full-noise-eve",
        "method2-full-noise",
        "method2-polarization-fixed-eve",
        "method2-every-pauli-pair",
        "method1-every-pauli-pair",
    ],
)
def test_round_records_match_the_scalar_reference_engine(cfg):
    _, transcript = _run(cfg)
    base = (cfg.seed, 1)
    pairs = set()
    for record in transcript.rounds:
        angles, retained, parity, outcomes, paulis = _scalar_round(cfg, base, record.index)
        pairs.add(paulis)
        assert (record.phi_a, record.phi_b, record.phi_c) == angles
        assert (record.retained, record.parity) == (retained, parity)
        assert (record.outcome_a, record.outcome_b, record.outcome_c) == outcomes
        assert all(type(x) is float for x in (record.phi_a, record.phi_b, record.phi_c))
        ints = (record.index, record.outcome_a, record.outcome_b, record.outcome_c)
        assert all(type(x) is int for x in ints)
        assert record.parity is None or type(record.parity) is int
    if cfg is _EVERY_PAULI_PAIR or cfg is _METHOD1_EVERY_PAULI_PAIR:
        assert pairs == set(itertools.product(range(4), repeat=2))


def _session_or_error(run, cfg):
    """``run(cfg)``, or the message of the ``KeyExhausted`` it raises."""
    try:
        return run(cfg)
    except KeyExhausted as exc:
        return str(exc)


def test_batch_boundaries_do_not_change_a_session(monkeypatch):
    cases = [
        (_run, _m1(key_length=40, seed=5, noise=_NOISY, eve=EveStrategy.intercept_resend_a(), threshold=1.0)),
        (_run, _m2(key_length=40, seed=3, noise=_NOISY, eve=EveStrategy.intercept_resend_a(0.3), threshold=1.0)),
        (_run, _m2(key_length=40, seed=9, noise=_NOISY, threshold=1.0)),
        *((_run, _m1(key_length=k, seed=k + 17)) for k in (1, 128, 300)),
        (_run, _m1(menu=(0.0, 0.1, 0.5), key_length=12, max_rounds=2000, seed=4)),  # retention 1/27
        (run_three_party, _m1(key_length=50, seed=21)),  # what `ghzkd simulate --method 3party --menu` runs
        (_run, _m1(key_length=64, max_rounds=100, seed=2)),
    ]
    whole = [_session_or_error(run, cfg) for run, cfg in cases]
    assert whole[-1] == "only 49 of 64 key bits placed in 100 rounds"
    monkeypatch.setattr(protocol, "_MAX_BATCH", 7)
    assert [_session_or_error(run, cfg) for run, cfg in cases] == whole


def test_menu_session_plays_one_batch(monkeypatch):
    calls = []

    def counted(config, base, start, stop):
        calls.append(stop - start)
        return _play_rounds(config, base, start, stop)

    monkeypatch.setattr(protocol, "_play_rounds", counted)
    specs, modes = GhzSpec.all_canonical(), list(Mode)
    for seed in range(200):
        calls.clear()
        cfg = _m1(spec=specs[seed % len(specs)], mode=modes[seed // len(specs) % len(modes)], seed=seed)
        result, _ = run_method1(cfg)
        assert len(calls) == 1, (seed, calls, result.rounds_used)


@pytest.mark.parametrize(
    "menu, retention", [(MENU, 14 / 27), ((0.0, 0.1, 0.5), 1 / 27)], ids=["quarter-turns", "narrow"]
)
def test_menu_table_rows_are_the_single_setting_law(menu, retention):
    menu = _m1(menu=menu).menu  # normalized, as a session keys the table
    for spec in GhzSpec.all_canonical():
        law = protocol._menu_law(menu, spec)
        assert law.retention == menu_quality(menu, spec)
        for code, triple in enumerate(itertools.product(menu, repeat=3)):
            assert tuple(law.triples[code].tolist()) == triple
            assert law.parity[code] == parity_rule(spec, triple)
            for pa, pc in itertools.product(range(4), repeat=2):
                single = np.cumsum(outcome_probs(spec, [triple], np.array([[pa], [pc]])), axis=1)[0]
                assert np.array_equal(law.cdf[16 * code + 4 * pa + pc], single), (spec, triple, pa, pc)
        for array in (law.triples, law.parity, law.cdf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    assert protocol._menu_law(menu, GhzSpec()).retention == retention


@st.composite
def _estimator_cases(draw):
    spec = draw(st.sampled_from(GhzSpec.all_canonical()))
    if draw(st.booleans()):
        phases = draw(st.sampled_from([t for t, _ in super_classical_triples(MENU, spec)]))
    else:
        phi_a, phi_c = draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
        phases = (phi_a, solve_bob_phase(spec, phi_a, phi_c, draw(st.sampled_from([1, -1]))), phi_c)
    eve = draw(st.sampled_from(["none", "at-phi-a", "random"]))
    return {
        "spec": spec,
        "phases": phases,
        "mode": draw(st.sampled_from(list(Mode))),
        "eve_angle": None if eve == "none" else phases[0] if eve == "at-phi-a" else draw(st.floats(-7.0, 7.0)),
        "noise_p": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**64)),
        "n_rounds": draw(st.integers(1, 300)),
    }


@settings(max_examples=40, deadline=None)
@given(_estimator_cases())
@example(
    {
        "spec": GhzSpec("+-+", 1),
        "phases": (0.3, solve_bob_phase(GhzSpec("+-+", 1), 0.3, 2.0, -1), 2.0),
        "mode": Mode.POLARIZATION,
        "eve_angle": 1.1,
        "noise_p": 0.3,
        "seed": 12345,
        "n_rounds": _MAX_BATCH + 904,  # two blocks
    }
)
def test_monte_carlo_rounds_match_the_scalar_reference_engine(case):
    spec, phases, mode, eve_angle = case["spec"], case["phases"], case["mode"], case["eve_angle"]
    noise, n, seed = NoiseModel.depolarizing(case["noise_p"]), case["n_rounds"], case["seed"]
    eve = EveStrategy.none() if eve_angle is None else EveStrategy.intercept_resend_a(eve_angle)
    cfg = _m2(spec=spec, mode=mode, eve=eve, noise=noise)
    blocks = list(_fixed_triple_outcomes(cfg, phases, n, seed))
    assert all(len(block) <= _MAX_BATCH for block in blocks)
    got = [tuple(row) for block in blocks for row in block.tolist()]
    want = [_scalar_round(cfg, (seed, 0), j, phases)[3] for j in range(n)]
    assert got == want
    parity = is_super_classical(spec, phases)
    violations = sum(math.prod(outcomes) != parity for outcomes in want)
    mc = monte_carlo_violation_rate(spec, phases, mode, eve_angle=eve_angle, noise=noise, n_rounds=n, seed=seed)
    assert mc == (violations, n)


def test_monte_carlo_needs_a_round():
    triple = (0.0, math.pi / 2, math.pi / 2)
    for n_rounds in (0, -5):
        with pytest.raises(ValueError, match="n_rounds"):
            monte_carlo_violation_rate(GhzSpec("+++", -1), triple, n_rounds=n_rounds)


# --------------------------------------------------------------------------
# three-party extension


def test_three_party_shares_one_key():
    cfg = _m2(key_length=32, seed=21)
    (r1, t1), (r2, t2) = run_three_party(cfg)
    assert r1.key_recovered == r1.key_sent
    assert r2.key_sent == r1.key_recovered
    assert r2.key_recovered == r1.key_sent
    # both runs publish their own pad bits
    assert any(m.kind == "d_bit" for m in t1.public_log)
    assert any(m.kind == "d_bit" for m in t2.public_log)


def test_three_party_eve_in_second_run_only():
    cfg = _m2(key_length=96, seed=33)
    attacked = _m2(key_length=96, seed=33, eve=EveStrategy.intercept_resend_a(math.pi / 2))
    (r1, _), (r2, _) = run_three_party(cfg, second_config=attacked)
    assert r1.detection.verdict is Verdict.CLEAN
    assert r2.detection.verdict is Verdict.EVE_DETECTED
    assert r1.detection.violations == 0
    assert r2.detection.violations > 0


def test_three_party_key_length_must_match():
    with pytest.raises(ConfigError):
        run_three_party(_m2(key_length=8), second_config=_m2(key_length=16))


def test_three_party_second_run_keeps_the_seed():
    with pytest.raises(ConfigError, match="seed"):
        run_three_party(_m2(key_length=8, seed=1), second_config=_m2(key_length=8, seed=999))


# --------------------------------------------------------------------------
# transcripts and information flow


def test_public_log_contains_only_public_kinds():
    _, transcript = run_method1(_m1(key_length=16, seed=4))
    assert {m.kind for m in transcript.public_log} <= set(PUBLIC_KINDS)
    assert {m.sender for m in transcript.public_log} <= {"alice", "bob", "charlie"}
    # the receiver's per-round angle never hits the channel
    assert not any(m.sender == "bob" and m.kind == "angle" for m in transcript.public_log)
    by_kind = {}
    for m in transcript.public_log:
        by_kind.setdefault(m.kind, []).append(m)
    retained = sum(1 for r in transcript.rounds if r.retained)
    discarded = sum(1 for r in transcript.rounds if not r.retained)
    assert len(by_kind["d_bit"]) == retained
    assert len(by_kind["c_bit"]) == retained
    assert len(by_kind["discard"]) == discarded
    assert len(by_kind["menu"]) == 1


def test_public_transcript_masks_private_fields():
    result, transcript = run_method1(_m1(key_length=16, seed=4))
    masked = json.loads(transcript_to_json(transcript, reveal_secret=False))
    assert masked["header"]["spec"] is None
    assert masked["header"]["spec_redacted"] is True
    for row in masked["rounds"]:
        assert row["phi_b"] is None
        assert row["outcome_a"] is None
        assert row["outcome_b"] is None
        assert row["parity"] is None
        assert row["b_bit"] is None
        assert row["violation"] is None
    revealed = json.loads(transcript_to_json(transcript, reveal_secret=True))
    assert revealed["header"]["spec"] == "+++,-"
    assert all(row["parity"] in (1, -1) for row in revealed["rounds"] if row["retained"])
    # the public dump never contains the key or the senders' bit strings
    blob = transcript_to_json(transcript, reveal_secret=False)
    from ghzkd.protocol import bits_to_str

    assert bits_to_str(result.key_sent) not in blob.replace('"', "")


def test_bits_to_str_output_is_pinned():
    from ghzkd.protocol import bits_to_str

    bits = (1, 0, 1, 1, 0, 0, 0, 1, 1)
    for form in (bits, list(bits), np.array(bits), np.array(bits, dtype=np.uint8), np.array(bits, dtype=bool)):
        assert bits_to_str(form) == "101100011"
    assert bits_to_str(()) == bits_to_str(np.array([], dtype=np.int64)) == ""
    key = np.random.default_rng(3).integers(0, 2, size=4096)
    assert bits_to_str(key) == bits_to_str(tuple(key.tolist())) == "".join(str(int(b)) for b in key)


def test_session_result_serialization_masks_keys():
    result, _ = run_method2(_m2(key_length=8, seed=6))
    masked = session_result_to_dict(result, reveal_secret=False)
    assert masked["key_sent"] is None
    assert masked["key_recovered"] is None
    assert masked["alice_bits_inferred"] is None
    assert masked["key_match"] is True
    revealed = session_result_to_dict(result, reveal_secret=True)
    assert len(revealed["key_sent"]) == 8
    assert revealed["key_recovered"] == revealed["key_sent"]


def test_csv_round_trip_and_angle_precision():
    _, transcript = run_method1(_m1(key_length=8, seed=15))
    text = transcript_to_csv(transcript, reveal_secret=True)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header[:4] == ["index", "phi_a", "phi_b", "phi_c"]
    assert len(lines) - 1 == len(transcript.rounds)
    first = lines[1].split(",")
    assert float(first[1]) == transcript.rounds[0].phi_a  # 17 significant digits round-trip
    masked = transcript_to_csv(transcript, reveal_secret=False)
    masked_first = [ln for ln in masked.splitlines() if not ln.startswith("#")][1].split(",")
    assert masked_first[2] == ""  # receiver's angle blanked
