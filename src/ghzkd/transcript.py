"""Round records, the public message log, and transcript serialization.

A transcript separates two views of a session: the full per-round records
(the simulator's god view, which includes every party's private data) and
the public log (only what actually crossed the classical channel).  The
records are stored; the public log is derived from them and the menu, since
every public message is a fixed function of one round's record.  The
serializers default to the public view and blank out private fields; pass
``reveal_secret=True`` to dump everything.

Angles are serialized as decimal radians with up to 17 significant digits,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

#: Message kinds that may appear on the public classical channel.
PUBLIC_KINDS = ("menu", "angle", "discard", "d_bit", "c_bit")

#: Session-scoped public messages carry this round index.
SESSION_SCOPE = -1


def format_angle(x: float) -> str:
    """Decimal radians with full double precision (17 significant digits)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class PublicMessage:
    """One classical broadcast: who said what, and in which round."""

    round_index: int
    sender: str
    kind: str
    value: object

    def __post_init__(self):
        if self.kind not in PUBLIC_KINDS:
            raise ValueError(f"not a public message kind: {self.kind!r}")


@dataclass
class RoundRecord:
    """Everything one round produced, including the parties' private data.

    ``parity`` and the bit fields are None on discarded rounds (no key bit
    is consumed there).  ``violation`` means the round was retained and the
    outcome product disagreed with the deterministic parity.
    """

    index: int
    phi_a: float
    phi_b: float
    phi_c: float
    retained: bool
    outcome_a: int
    outcome_b: int
    outcome_c: int
    parity: int | None = None
    d_bit: int | None = None
    c_bit: int | None = None
    e_bit: int | None = None
    b_bit: int | None = None
    violation: bool = False


@dataclass
class Transcript:
    """Config echo and per-round records; the ordered public log derives from them."""

    method: str
    spec_label: str
    mode: str
    menu: tuple[float, ...] | None
    seed: int
    key_length: int
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def public_log(self) -> list[PublicMessage]:
        """Everything that crossed the classical channel, in order.

        Bob's menu when one was announced, then per round Alice's and
        Charlie's angles followed by Bob's discard notice or, on a retained
        round, Alice's D bit and Charlie's C bit.
        """
        log = [] if self.menu is None else [PublicMessage(SESSION_SCOPE, "bob", "menu", self.menu)]
        for r in self.rounds:
            log.append(PublicMessage(r.index, "alice", "angle", r.phi_a))
            log.append(PublicMessage(r.index, "charlie", "angle", r.phi_c))
            if r.retained:
                log.append(PublicMessage(r.index, "alice", "d_bit", r.d_bit))
                log.append(PublicMessage(r.index, "charlie", "c_bit", r.c_bit))
            else:
                log.append(PublicMessage(r.index, "bob", "discard", True))
        return log


def _header_dict(t: Transcript, reveal_secret: bool) -> dict:
    return {
        "method": t.method,
        "spec": t.spec_label if reveal_secret else None,
        "spec_redacted": not reveal_secret,
        "mode": t.mode,
        "menu": None if t.menu is None else [format_angle(a) for a in t.menu],
        "seed": t.seed,
        "key_length": t.key_length,
    }


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
        return format_angle(msg.value)  # type: ignore[arg-type]
    if msg.kind == "menu":
        return [format_angle(a) for a in msg.value]  # type: ignore[union-attr]
    return msg.value


def transcript_to_dict(t: Transcript, reveal_secret: bool = False) -> dict:
    """JSON-compatible dict with header, public log, and per-round records."""
    return {
        "header": _header_dict(t, reveal_secret),
        "public_log": [
            {
                "round": m.round_index,
                "sender": m.sender,
                "kind": m.kind,
                "value": _message_value(m),
            }
            for m in t.public_log
        ],
        "rounds": [_round_dict(r, reveal_secret) for r in t.rounds],
    }


def transcript_to_json(t: Transcript, reveal_secret: bool = False) -> str:
    return json.dumps(transcript_to_dict(t, reveal_secret), indent=2) + "\n"


_CSV_COLUMNS = (
    "index",
    "phi_a",
    "phi_b",
    "phi_c",
    "retained",
    "outcome_a",
    "outcome_b",
    "outcome_c",
    "parity",
    "d_bit",
    "c_bit",
    "e_bit",
    "b_bit",
    "violation",
)


def transcript_to_csv(t: Transcript, reveal_secret: bool = False) -> str:
    """Flat one-row-per-round CSV; the header rides along as # comments."""
    buf = io.StringIO()
    for key, value in _header_dict(t, reveal_secret).items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in t.rounds:
        d = _round_dict(r, reveal_secret)
        writer.writerow(["" if d[col] is None else d[col] for col in _CSV_COLUMNS])
    return buf.getvalue()
