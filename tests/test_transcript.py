"""Transcript writer: bytes against the dict encoder, round trips, public-view key independence."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzkd.adversary import EveStrategy, NoiseModel
from ghzkd.cli import _payload_json
from ghzkd.core import Mode
from ghzkd.ghz import GhzSpec
from ghzkd.protocol import (
    Method,
    ProtocolConfig,
    _draw_key_bits,
    _round_rng,
    _run_session,
    _unit,
    run_method1,
    run_method2,
    run_three_party,
    session_result_to_dict,
)
from ghzkd.transcript import (
    ROUND_FIELDS,
    PublicMessage,
    RoundRecord,
    _format_angles,
    _header_dict,
    format_angle,
    transcript_to_csv,
    transcript_to_dict,
    transcript_to_json,
)

MENUS = ((0.0, math.pi / 2, math.pi), (math.pi / 2, math.pi, 3 * math.pi / 2))
SPECS = tuple(GhzSpec.parse(s) for s in ("+++,-", "++-,+", "-+-,-", "+--,+"))
ANGLES = {"phi_a", "phi_b", "phi_c"}


# --------------------------------------------------------------------------
# Reference: the per-record dict encoder, serialized by the standard library


def _round_dict(r: RoundRecord, reveal_secret: bool) -> dict:
    # Private per-round data: Bob's angle, the a/b outcomes and bits, the
    # parity class, and the violation flag (it derives from parity and the
    # sender's key).  Charlie's outcome is public only once announced as a
    # bit on a retained round.
    if reveal_secret:
        outcome_a, outcome_b, outcome_c = r.outcome_a, r.outcome_b, r.outcome_c
        phi_b, parity, b_bit, violation = r.phi_b, r.parity, r.b_bit, r.violation
    else:
        outcome_a = outcome_b = None
        outcome_c = r.outcome_c if r.c_bit is not None else None
        phi_b = parity = b_bit = violation = None
    return {
        "index": r.index,
        "phi_a": format_angle(r.phi_a),
        "phi_b": None if phi_b is None else format_angle(phi_b),
        "phi_c": format_angle(r.phi_c),
        "retained": r.retained,
        "outcome_a": outcome_a,
        "outcome_b": outcome_b,
        "outcome_c": outcome_c,
        "parity": parity,
        "d_bit": r.d_bit,
        "c_bit": r.c_bit,
        "e_bit": r.e_bit,
        "b_bit": b_bit,
        "violation": violation,
    }


def _message_value(msg: PublicMessage) -> object:
    if msg.kind == "angle":
        return format_angle(msg.value)
    if msg.kind == "menu":
        return [format_angle(a) for a in msg.value]
    return msg.value


def _reference_dict(t, reveal_secret):
    return {
        "header": _header_dict(t, reveal_secret),
        "public_log": [
            {"round": m.round_index, "sender": m.sender, "kind": m.kind, "value": _message_value(m)}
            for m in t.public_log
        ],
        "rounds": [_round_dict(r, reveal_secret) for r in t.rounds],
    }


def _reference_csv(t, reveal_secret):
    buf = io.StringIO()
    for key, value in _header_dict(t, reveal_secret).items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROUND_FIELDS)
    for r in t.rounds:
        d = _round_dict(r, reveal_secret)
        writer.writerow(["" if d[col] is None else d[col] for col in ROUND_FIELDS])
    return buf.getvalue()


def _reference_payload(seed, runs, reveal_secret):
    payload = {
        "seed": seed,
        "runs": [
            {"result": session_result_to_dict(r, reveal_secret), "transcript": _reference_dict(t, reveal_secret)}
            for r, t in runs
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# --------------------------------------------------------------------------
# Drawn sessions


@st.composite
def _sessions(draw):
    """(seed, runs) of one ``simulate``-style invocation: method 1, 2 or three-party.

    Menus, noise, a guessing or fixed-angle eavesdropper, both parity
    preferences and key lengths from 1 to 300.  The round budget is wide
    enough that method 1 never runs out of rounds.
    """
    method = draw(st.sampled_from(["1", "2", "3party"]))
    menu = draw(st.sampled_from(MENUS if method == "1" else (None, *MENUS)))
    three_party = method == "3party"
    if three_party:
        method = "1" if menu is not None else "2"
    eves = [EveStrategy.none(), EveStrategy.intercept_resend_a(draw(st.floats(0.0, 2 * math.pi)))]
    if menu is not None:
        eves.append(EveStrategy.intercept_resend_a())
    noise_p = draw(st.sampled_from([0.0, 0.1, 0.5]))
    key_length = draw(st.integers(1, 300))
    config = ProtocolConfig(
        method=Method.METHOD1 if method == "1" else Method.METHOD2,
        spec=draw(st.sampled_from(SPECS)),
        mode=draw(st.sampled_from(list(Mode))),
        menu=menu,
        bob_parity_preference=draw(st.sampled_from([1, -1])),
        key_length=key_length,
        max_rounds=16 * key_length + 64,
        seed=draw(st.integers(0, 2**70)),
        eve=draw(st.sampled_from(eves)),
        noise=NoiseModel.depolarizing(noise_p) if noise_p else NoiseModel.none(),
    )
    if three_party:
        runs = list(run_three_party(config))
    else:
        runs = [(run_method1 if config.method is Method.METHOD1 else run_method2)(config)]
    return config.seed, runs


@settings(max_examples=80, deadline=None)
@given(session=_sessions(), reveal=st.booleans())
def test_writer_bytes_equal_the_dict_encoder(session, reveal):
    seed, runs = session
    assert _payload_json(seed, runs, reveal) == _reference_payload(seed, runs, reveal)
    for _, t in runs:
        assert transcript_to_json(t, reveal) == json.dumps(_reference_dict(t, reveal), indent=2) + "\n"
        assert transcript_to_dict(t, reveal) == _reference_dict(t, reveal)
        assert transcript_to_csv(t, reveal) == _reference_csv(t, reveal)


_SPECIAL_FLOATS = (
    *(math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e-5, 9.999999999999999e-5, 1e300),
    *(0.09999999999999999, 0.1, 1.0, 2.0, 9.999999999999998, 10.0),  # the edges of the kernel's range
)


@settings(max_examples=200, deadline=None)
@example(xs=[])
@example(xs=list(_SPECIAL_FLOATS))
@given(
    xs=st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS), st.floats(-1e-4, 1e-4), st.floats(0.1, 10)))
)
def test_column_formatter_equals_format_angle(xs):
    expected = [format_angle(x) for x in xs]
    assert _format_angles(xs) == expected
    assert _format_angles(np.array(xs, dtype=np.float64)) == expected
    phases = np.zeros((len(xs), 3))
    phases[:, 1] = xs
    assert _format_angles(phases[:, 1]) == expected  # a strided column, as the writer passes it


def test_angle_kernel_equals_format_angle_densely():
    """The kernel on exact ties, on 2000 ulps either side of six anchors, on short dyadics and on drawn angles.

    x = odd / 2**17 in [1, 10) and odd / 2**18 in [0.1, 1) put the digit
    after the 17th significant one exactly halfway, so the rounding must go
    to the even digit: 1 + 2**-17 prints 1.0000076293945312.  Every other
    such tie is checked.  The short dyadics end in zero groups.
    """
    anchors = np.array([0.1, 1.0, 2.0, 4.0, 2 * math.pi, np.nextafter(10.0, 0.0)])
    ulps = np.arange(-2000, 2001)
    columns = [
        np.arange(2**17 + 1, 10 * 2**17, 4) / 2**17,
        np.arange(int(0.1 * 2**18) + 1, 2**18, 4) / 2**18,  # 26215 is odd
        (anchors.view(np.int64)[:, None] + ulps).view(np.float64).ravel(),
        np.arange(1, 10 * 2**10) / 2**10,
        2.0 * math.pi * _unit(_round_rng((5, 0), 1, np.arange(2**16, dtype=np.uint64))),
    ]
    assert _format_angles([1 + 2**-17]) == ["1.0000076293945312"]
    for xs in columns:
        assert _format_angles(xs) == [format_angle(x) for x in xs.tolist()]


def _decoded_csv(text):
    """Each CSV row as a dict of Python values: floats for angles, ints, flags, None for a blank."""
    header, *rows = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    assert tuple(header) == ROUND_FIELDS
    flags = {"True": True, "False": False}

    def decode(name, cell):
        if cell == "":
            return None
        if name in ANGLES:
            return float(cell)
        return flags[cell] if name in ("retained", "violation") else int(cell)

    return [{name: decode(name, cell) for name, cell in zip(header, row)} for row in rows]


@settings(max_examples=30, deadline=None)
@given(session=_sessions())
def test_json_and_csv_round_trip(session):
    _, runs = session
    for _, t in runs:
        records = [dataclasses.asdict(r) for r in t.rounds]
        data = json.loads(transcript_to_json(t, reveal_secret=True))
        from_json = [{k: float(v) if k in ANGLES else v for k, v in row.items()} for row in data["rounds"]]
        assert from_json == records
        assert _decoded_csv(transcript_to_csv(t, reveal_secret=True)) == records
        log_angles = [float(m["value"]) for m in data["public_log"] if m["kind"] == "angle"]
        assert log_angles == [x for r in t.rounds for x in (r.phi_a, r.phi_c)]


# --------------------------------------------------------------------------
# Public view


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(
            method=Method.METHOD1,
            menu=MENUS[0],
            key_length=200,
            seed=17,
            noise=NoiseModel.depolarizing(0.1),
            eve=EveStrategy.intercept_resend_a(),
        ),
        ProtocolConfig(
            method=Method.METHOD2,
            key_length=200,
            seed=23,
            noise=NoiseModel.depolarizing(0.1),
            eve=EveStrategy.intercept_resend_a(0.7),
        ),
    ],
    ids=["method1-noise-guessing-eve", "method2-noise-fixed-eve"],
)
def test_public_view_is_independent_of_the_key(config):
    # The same rounds carrying the complementary key: the masked JSON may
    # differ only in the published D bits and the E bits derived from them.
    base = (config.seed, 1)
    key = _draw_key_bits(config, base)
    (r0, t0), (r1, t1) = _run_session(config, base, key), _run_session(config, base, 1 - key)
    assert r0.key_sent != r1.key_sent
    assert session_result_to_dict(r0) == session_result_to_dict(r1)
    m0, m1 = json.loads(transcript_to_json(t0)), json.loads(transcript_to_json(t1))
    assert m0["header"] == m1["header"]
    assert len(m0["rounds"]) == len(m1["rounds"])
    for a, b in zip(m0["rounds"], m1["rounds"]):
        differing = {name for name in ROUND_FIELDS if a[name] != b[name]}
        assert differing == ({"d_bit", "e_bit"} if a["retained"] else set())
    assert len(m0["public_log"]) == len(m1["public_log"])
    for a, b in zip(m0["public_log"], m1["public_log"]):
        if a["kind"] == "d_bit":
            assert a["value"] == 1 - b["value"]
            a, b = dict(a, value=None), dict(b, value=None)
        assert a == b
