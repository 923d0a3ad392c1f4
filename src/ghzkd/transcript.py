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
``reveal_secret=True`` shows everything.  Each index and angle is turned into
text once.  A block of rows is assembled column-wise: the text between the
values is split out of a template once, every piece takes its place in every
row by slice assignment, and the block is one ``str.join``, so no row
template is scanned per row.  The text that depends only on a round's flags,
outcomes, parity and bits is formatted once per distinct combination of
them.  The writer yields a transcript as a few chunks (the header, the
``public_log`` block, the ``rounds`` block, and the text between them), so
``ghzkd simulate`` writes each block as soon as it is made and never builds
the whole payload as one string; ``transcript_to_json`` and
``transcript_to_csv`` join the same chunks.  The JSON text is byte for byte
what ``json.dumps(..., indent=2)`` writes for the same data; the small header
and result dicts go through ``json.dumps`` itself, re-indented to their depth.

Angles are serialized as decimal radians with up to 17 significant digits,
which round-trips IEEE doubles exactly.  Each angle column is formatted with
one ``%`` operation over the whole column (``_format_angles``), which gives
the same text as ``format_angle`` per value.
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
#: The fields after the index and the angles: flags, outcomes, parity and bits.
_NARROW = frozenset(ROUND_FIELDS[4:])


_ANGLE_FORMAT = ".17g"


def format_angle(x: float) -> str:
    """Decimal radians with full double precision (17 significant digits); the CLI prints rates with it too."""
    return format(float(x), _ANGLE_FORMAT)


def _format_angles(xs: list[float]) -> list[str]:
    """``[format_angle(x) for x in xs]`` for Python floats, with one ``%`` operation over the whole list."""
    return (f"%{_ANGLE_FORMAT}\n" * len(xs) % tuple(xs)).split("\n")[:-1]


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
        "format": 1,  # the transcript format's version; a change to the output bumps it
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

    A column holds Python values, the index and the angles already as text;
    it is None for a field the view blanks on every round.  Private
    per-round data is Bob's angle, the a/b outcomes and bits, the parity
    class, and the violation flag (it derives from parity and the sender's
    key).  Charlie's outcome is public only once announced as a bit on a
    retained round.  The parity and the bits exist on retained rounds only.
    """
    every, kept_only = (True, True), (True, False)
    secret, secret_kept_only = (reveal_secret, reveal_secret), (reveal_secret, False)
    phi_a, phi_b, phi_c = t.phases.T.tolist()
    outcome_a, outcome_b, outcome_c = t.outcomes.T.tolist()
    d_bit, c_bit, e_bit, b_bit = t.bits.T.tolist()
    table = (
        ("index", list(map(str, range(len(phi_a)))), every),
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
            column = _format_angles(column)
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


def _join_rows(parts: list, n: int, sep: str, lead: str = "") -> str:
    """n rows, ``sep`` between them and ``lead`` before the first: row r is ``parts[0][r] + parts[1][r] + ...``.

    A part is a list of n strings, or one string that every row repeats.
    Each part takes its place in every row with one slice assignment, and
    all rows are joined at once, so no row template is scanned per row.
    """
    k = len(parts) + 1
    pieces = [sep] * (k * n)
    for j, part in enumerate(parts, start=1):
        pieces[j::k] = [part] * n if isinstance(part, str) else part
    if pieces:
        pieces[0] = lead
    return "".join(pieces)


def _narrow_codes(t: Transcript) -> np.ndarray:
    """One code per round, equal for two rounds exactly when all their ``_NARROW`` fields are equal."""
    code = np.zeros(len(t.retained), dtype=np.int64)
    for column in (t.retained, *t.outcomes.T, t.parity, *t.bits.T, t.violation):
        code = 3 * code + (column.astype(np.int64) + 1)  # every narrow value is -1, 0 or 1
    return code


def _round_rows(t: Transcript, view: dict, shapes: list, frame: tuple[str, str, str], flags: tuple, sep: str) -> str:
    """The rows of ``rounds``, ``sep`` between them.

    A row is the opening, the field texts of its shape joined by the
    separator, and the closing: ``frame`` is (opening, separator, closing) and
    ``shapes`` the fields' (name, text) on a retained and on a discarded row.
    The index and the angles show alike on both shapes and fill the ``%s``
    of one head template.  The ``_NARROW`` fields after them are formatted
    once per distinct combination into that combination's tail; ``flags`` is
    the text of False and True.
    """
    opening, field_sep, closing = frame
    wide = [column for name, (column, _) in view.items() if name not in _NARROW and column is not None]
    narrow = [(name, column) for name, (column, _) in view.items() if name in _NARROW and column is not None]
    head = (opening + field_sep.join(text for name, text in shapes[0] if name not in _NARROW) + field_sep).split("%s")
    _, first, which = np.unique(_narrow_codes(t), return_index=True, return_inverse=True)
    tails = []
    for r in first.tolist():
        shape = shapes[0] if view["retained"][0][r] else shapes[1]
        values = tuple(flags[column[r]] if name in _FLAGS else column[r] for name, column in narrow)
        tails.append(field_sep.join(text for name, text in shape if name in _NARROW) % values + closing)
    parts = [piece for pair in zip(head, wide) for piece in pair]
    parts += [head[-1], [tails[k] for k in which.tolist()]]
    return _join_rows(parts, len(t.retained), sep)


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
    """The ``public_log`` entries: the menu, then each round's angles and its bits or discard notice.

    A round's entries are the angle messages, with its index and the two
    angles filled in, then one of five tails: the D and C bit messages (one
    text per pair of bit values) around the index twice, or the discard
    notice around the index once.
    """
    pad = "  " * level
    angles = _json_message(pad, "alice", "angle", '"%s"') + ",\n" + _json_message(pad, "charlie", "angle", '"%s"')
    angles = angles.split("%s")
    bits = [
        ",\n" + _json_message(pad, "alice", "d_bit", d) + ",\n" + _json_message(pad, "charlie", "c_bit", c)
        for d in "01"
        for c in "01"
    ]
    discard = ",\n" + _json_message(pad, "bob", "discard", "true") + "%s"  # its second index slot writes ""
    tails = [text.split("%s") for text in (*bits, discard)]
    tail = np.where(t.retained, 2 * t.bits[:, 0] + t.bits[:, 1], 4).tolist()
    index, phi_a, phi_c, retained = (view[name][0] for name in ("index", "phi_a", "phi_c", "retained"))
    parts = [angles[0], index, angles[1], phi_a, angles[2], index, angles[3], phi_c, angles[4]]
    parts += [[tails[k][0] for k in tail], index, [tails[k][1] for k in tail]]
    parts += [[i if r else "" for i, r in zip(index, retained)], [tails[k][2] for k in tail]]
    if t.menu is None:
        return _join_rows(parts, len(index), ",\n")
    menu = {"round": SESSION_SCOPE, "sender": "bob", "kind": "menu", "value": [format_angle(a) for a in t.menu]}
    menu = pad + nested_json(menu, level)
    return _join_rows(parts, len(index), ",\n", lead=menu + ",\n") if index else menu


def _json_rounds(t: Transcript, view: dict, level: int) -> str:
    """The ``rounds`` entries; flags become JSON's true and false."""
    pad = "  " * level
    frame = (f"{pad}{{\n{pad}  ", f",\n{pad}  ", f"\n{pad}}}")
    shapes = _shape_templates(view, angle='"%s"', blank="null")
    shapes = [[(name, f'"{name}": {text}') for name, text in shape] for shape in shapes]
    return _round_rows(t, view, shapes, frame, ("false", "true"), ",\n")


def transcript_json_chunks(t: Transcript, reveal_secret: bool, level: int):
    """The transcript's JSON object as ``json.dumps(..., indent=2)`` writes it ``level`` levels deep, in chunks.

    The header, the ``public_log`` block and the ``rounds`` block, each with
    the text that joins it to the next; their concatenation is the object.
    """
    view = _round_view(t, reveal_secret)
    pad, inner = "  " * level, "  " * (level + 1)
    yield (
        "{\n"
        f'{inner}"header": {nested_json(_header_dict(t, reveal_secret), level + 1)},\n'
        f'{inner}"public_log": [\n'
    )
    yield _json_log(t, view, level + 2)
    yield f'\n{inner}],\n{inner}"rounds": [\n'
    yield _json_rounds(t, view, level + 2)
    yield f"\n{inner}]\n{pad}}}"


def transcript_to_json(t: Transcript, reveal_secret: bool = False) -> str:
    """The transcript as indented JSON: header, public log, and per-round records."""
    return "".join(transcript_json_chunks(t, reveal_secret, 0)) + "\n"


def transcript_to_dict(t: Transcript, reveal_secret: bool = False) -> dict:
    """JSON-compatible dict with header, public log, and per-round records, read back from the writer."""
    return json.loads("".join(transcript_json_chunks(t, reveal_secret, 0)))


def transcript_csv_chunks(t: Transcript, reveal_secret: bool = False):
    """Flat one-row-per-round CSV in chunks: the header as # comments plus the column names, then the rows.

    Flags print as True and False, blanks as empty cells; no cell needs quoting.
    """
    view = _round_view(t, reveal_secret)
    head = "".join(f"# {key}={value}\n" for key, value in _header_dict(t, reveal_secret).items())
    yield head + ",".join(ROUND_FIELDS) + "\n"
    yield _round_rows(t, view, _shape_templates(view, angle="%s", blank=""), ("", ",", ""), ("False", "True"), "\n")
    yield "\n"


def transcript_to_csv(t: Transcript, reveal_secret: bool = False) -> str:
    """``transcript_csv_chunks`` joined."""
    return "".join(transcript_csv_chunks(t, reveal_secret))
