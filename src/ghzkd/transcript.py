"""Session transcripts: round columns, their derived views, and one writer.

A transcript holds a session's rounds as columns, row i being round i: the
three angles, retention, the three outcomes and the parity class that the
round engine produces, and the D, C, E and B bits and violation flags the
session computes for retained rounds.  Two read-only views are built from
the columns on each read: ``rounds``, one ``RoundRecord`` per round (the
simulator's god view, which includes every party's private data), and
``public_log``, only what actually crossed the classical channel.

One writer emits JSON and CSV straight from the columns, with no record or
message object per round.  ``_round_view`` decides which round fields each
view shows, for both formats: the default public view blanks private fields,
``reveal_secret=True`` shows everything.  Each angle is formatted once, and
every row goes through one ``%`` template per row shape (a retained or a
discarded round).  The JSON text is byte for byte what
``json.dumps(..., indent=2)`` writes for the same data; the small header and
result dicts go through ``json.dumps`` itself, re-indented to their depth.

Angles are serialized as decimal radians with up to 17 significant digits,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

#: Message kinds that may appear on the public classical channel.
PUBLIC_KINDS = ("menu", "angle", "discard", "d_bit", "c_bit")

#: Session-scoped public messages carry this round index.
SESSION_SCOPE = -1

#: Serialized round fields, in order; also the CSV column header.
ROUND_FIELDS = (
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

_ANGLES = {"phi_a", "phi_b", "phi_c"}
_FLAGS = {"retained", "violation"}


_ANGLE_FORMAT = ".17g"


def format_angle(x: float) -> str:
    """Decimal radians with full double precision (17 significant digits); the CLI prints rates with it too."""
    return format(float(x), _ANGLE_FORMAT)


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


@dataclass(eq=False)
class Transcript:
    """Config echo and the session's rounds as columns.

    ``phases`` (n, 3) holds phi_a, phi_b, phi_c; ``outcomes`` (n, 3) the
    +1/-1 outcomes of a, b, c; ``parity`` the deterministic parity, 0 on
    discarded rounds; ``bits`` (n, 4) the D, C, E and B bits, 0 on discarded
    rounds; ``retained`` and ``violation`` are flags.
    """

    method: str
    spec_label: str
    mode: str
    menu: tuple[float, ...] | None
    seed: int
    key_length: int
    phases: np.ndarray
    retained: np.ndarray
    outcomes: np.ndarray
    parity: np.ndarray
    bits: np.ndarray
    violation: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def rounds(self) -> list[RoundRecord]:
        """One record per round, built from the columns on each read."""
        records = []
        columns = (
            *self.phases.T.tolist(),
            self.retained.tolist(),
            *self.outcomes.T.tolist(),
            self.parity.tolist(),
            *self.bits.T.tolist(),
            self.violation.tolist(),
        )
        for index, (a, b, c, kept, oa, ob, oc, parity, *bits, violation) in enumerate(zip(*columns)):
            if kept:
                records.append(RoundRecord(index, a, b, c, True, oa, ob, oc, parity, *bits, violation))
            else:
                records.append(RoundRecord(index, a, b, c, False, oa, ob, oc))
        return records

    @property
    def public_log(self) -> list[PublicMessage]:
        """Everything that crossed the classical channel, in order.

        Bob's menu when one was announced, then per round Alice's and
        Charlie's angles followed by Bob's discard notice or, on a retained
        round, Alice's D bit and Charlie's C bit.
        """
        log = [] if self.menu is None else [PublicMessage(SESSION_SCOPE, "bob", "menu", self.menu)]
        phi_a, _, phi_c = self.phases.T.tolist()
        d_bits, c_bits = self.bits[:, :2].T.tolist()
        for index, (a, c, kept, d_bit, c_bit) in enumerate(zip(phi_a, phi_c, self.retained.tolist(), d_bits, c_bits)):
            log.append(PublicMessage(index, "alice", "angle", a))
            log.append(PublicMessage(index, "charlie", "angle", c))
            if kept:
                log.append(PublicMessage(index, "alice", "d_bit", d_bit))
                log.append(PublicMessage(index, "charlie", "c_bit", c_bit))
            else:
                log.append(PublicMessage(index, "bob", "discard", True))
        return log


# --------------------------------------------------------------------------
# Writer


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


def _round_view(t: Transcript, reveal_secret: bool) -> dict[str, tuple[list | None, tuple[bool, bool]]]:
    """Each round field's column and whether it shows on (retained, discarded) rounds.

    A column holds Python values, angles already formatted; it is None for a
    field the view blanks on every round.  Private per-round data is Bob's
    angle, the a/b outcomes and bits, the parity class, and the violation
    flag (it derives from parity and the sender's key).  Charlie's outcome is
    public only once announced as a bit on a retained round.  The parity and
    the bits exist on retained rounds only.
    """
    every, kept_only = (True, True), (True, False)
    secret, secret_kept_only = (reveal_secret, reveal_secret), (reveal_secret, False)
    phi_a, phi_b, phi_c = t.phases.T.tolist()
    outcome_a, outcome_b, outcome_c = t.outcomes.T.tolist()
    d_bit, c_bit, e_bit, b_bit = t.bits.T.tolist()
    table = (
        ("index", list(range(len(phi_a))), every),
        ("phi_a", phi_a, every),
        ("phi_b", phi_b, secret),
        ("phi_c", phi_c, every),
        ("retained", t.retained.tolist(), every),
        ("outcome_a", outcome_a, secret),
        ("outcome_b", outcome_b, secret),
        ("outcome_c", outcome_c, (True, reveal_secret)),
        ("parity", t.parity.tolist(), secret_kept_only),
        ("d_bit", d_bit, kept_only),
        ("c_bit", c_bit, kept_only),
        ("e_bit", e_bit, kept_only),
        ("b_bit", b_bit, secret_kept_only),
        ("violation", t.violation.tolist(), secret),
    )
    view = {}
    for name, column, shown in table:
        if not any(shown):
            column = None
        elif name in _ANGLES:
            column = [format(x, _ANGLE_FORMAT) for x in column]
        view[name] = column, shown
    return view


def _shape_templates(view: dict, angle: str, blank: str) -> tuple[list, list]:
    """Each field's (name, template text) on a retained row and on a discarded row.

    A field the view blanks on every round writes ``blank``.  One shown on
    the other row shape only writes ``blank`` and consumes its value with
    ``%.0s``, so both shapes format the same row tuple.
    """
    shapes = ([], [])
    for name, (column, shown) in view.items():
        for texts, show in zip(shapes, shown):
            if column is None:
                texts.append((name, blank))
            elif show:
                texts.append((name, angle if name in _ANGLES else "%s"))
            else:
                texts.append((name, blank + "%.0s"))
    return shapes


def _format_rows(templates: list[str], view: dict, columns: list[list]) -> list[str]:
    """Each round's row of ``columns`` through its shape's template (retained, discarded)."""
    kept, dropped = templates
    return [(kept if r else dropped) % row for r, row in zip(view["retained"][0], zip(*columns))]


def nested_json(obj, level: int) -> str:
    """``json.dumps(obj, indent=2)`` as it reads nested ``level`` levels deep.

    Re-indenting is exact because a JSON string never holds a raw newline.
    """
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def _json_message(pad: str, sender: str, kind: str, value: str) -> str:
    return (
        f'{pad}{{\n{pad}  "round": %s,\n{pad}  "sender": "{sender}",\n'
        f'{pad}  "kind": "{kind}",\n{pad}  "value": {value}\n{pad}}}'
    )


def _json_log(t: Transcript, view: dict, level: int) -> str:
    """The ``public_log`` entries: the menu, then each round's angles and its bits or discard notice."""
    pad = "  " * level
    angles = _json_message(pad, "alice", "angle", '"%s"') + ",\n" + _json_message(pad, "charlie", "angle", '"%s"')
    bits = _json_message(pad, "alice", "d_bit", "%s") + ",\n" + _json_message(pad, "charlie", "c_bit", "%s")
    # A discarded round's row still carries D, an index and C: consume them.
    discard = _json_message(pad, "bob", "discard", "true") + "%.0s" * 3
    index, phi_a, phi_c = (view[name][0] for name in ("index", "phi_a", "phi_c"))
    d_bit, c_bit = (view[name][0] for name in ("d_bit", "c_bit"))
    columns = [index, phi_a, index, phi_c, index, d_bit, index, c_bit]
    entries = _format_rows([angles + ",\n" + bits, angles + ",\n" + discard], view, columns)
    if t.menu is not None:
        menu = {"round": SESSION_SCOPE, "sender": "bob", "kind": "menu", "value": [format_angle(a) for a in t.menu]}
        entries.insert(0, pad + nested_json(menu, level))
    return ",\n".join(entries)


def _json_rounds(view: dict, level: int) -> str:
    """The ``rounds`` entries; flags become JSON's true and false."""
    pad = "  " * level
    templates = [
        f"{pad}{{\n" + ",\n".join(f'{pad}  "{name}": {text}' for name, text in shape) + f"\n{pad}}}"
        for shape in _shape_templates(view, angle='"%s"', blank="null")
    ]
    columns = [
        [("false", "true")[v] for v in column] if name in _FLAGS else column
        for name, (column, _) in view.items()
        if column is not None
    ]
    return ",\n".join(_format_rows(templates, view, columns))


def nested_transcript_json(t: Transcript, reveal_secret: bool, level: int) -> str:
    """The transcript's JSON object as ``json.dumps(..., indent=2)`` writes it ``level`` levels deep."""
    view = _round_view(t, reveal_secret)
    pad, inner = "  " * level, "  " * (level + 1)
    return (
        "{\n"
        f'{inner}"header": {nested_json(_header_dict(t, reveal_secret), level + 1)},\n'
        f'{inner}"public_log": [\n{_json_log(t, view, level + 2)}\n{inner}],\n'
        f'{inner}"rounds": [\n{_json_rounds(view, level + 2)}\n{inner}]\n'
        f"{pad}}}"
    )


def transcript_to_json(t: Transcript, reveal_secret: bool = False) -> str:
    """The transcript as indented JSON: header, public log, and per-round records."""
    return nested_transcript_json(t, reveal_secret, 0) + "\n"


def transcript_to_dict(t: Transcript, reveal_secret: bool = False) -> dict:
    """JSON-compatible dict with header, public log, and per-round records, read back from the writer."""
    return json.loads(nested_transcript_json(t, reveal_secret, 0))


def transcript_to_csv(t: Transcript, reveal_secret: bool = False) -> str:
    """Flat one-row-per-round CSV; the header rides along as # comments.

    Flags print as True and False, blanks as empty cells; no cell needs quoting.
    """
    view = _round_view(t, reveal_secret)
    templates = [",".join(text for _, text in shape) for shape in _shape_templates(view, angle="%s", blank="")]
    columns = [column for column, _ in view.values() if column is not None]
    head = "".join(f"# {key}={value}\n" for key, value in _header_dict(t, reveal_secret).items())
    rows = _format_rows(templates, view, columns)
    return head + ",".join(ROUND_FIELDS) + "\n" + "\n".join(rows) + "\n"
