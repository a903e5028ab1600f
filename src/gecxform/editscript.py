"""Character and string rewrite programs for single units (subwords or words).

A character transformation is built in three stages: a minimal
insert/replace/delete script over case-folded text, uppercase restorations
against the intermediate result, and (in uncased mode) diacritic
restorations. Edits are anchored from the start of the unit when they touch
its first half and from the end otherwise, which lets one program serve many
units ("go" -> "Going" and "walk" -> "Walking" share a single rule).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError
from .textnorm import CasingMode, case_diff, fold, strip_diacritics

FROM_START = "s"
FROM_END = "e"

INSERT = "ins"
REPLACE = "rep"
DELETE = "del"
UPPERCASE = "upc"
SET_DIACRITIC = "dia"

_BASE_KINDS = frozenset({INSERT, REPLACE, DELETE})
_PAYLOAD_KINDS = frozenset({INSERT, REPLACE, SET_DIACRITIC})
_ALL_KINDS = frozenset({INSERT, REPLACE, DELETE, UPPERCASE, SET_DIACRITIC})


class UnreachableSpanError(ValueError):
    """The target string cannot be produced for the given unit."""


@dataclass(frozen=True)
class CharEdit:
    """One primitive edit with a 1-based index counted from the start or the end."""

    kind: str
    anchor: str
    index: int
    payload: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown edit kind: {self.kind!r}")
        if self.anchor not in (FROM_START, FROM_END):
            raise ValueError(f"unknown anchor: {self.anchor!r}")
        if self.index < 1:
            raise ValueError("edit index must be >= 1")
        if self.kind in _PAYLOAD_KINDS and not self.payload:
            raise ValueError(f"{self.kind} edit requires a payload")
        if self.kind not in _PAYLOAD_KINDS and self.payload:
            raise ValueError(f"{self.kind} edit takes no payload")
        if self.kind == SET_DIACRITIC and len(self.payload) != 1:
            raise ValueError("dia payload must be a single character")


@dataclass(frozen=True)
class CharTransformation:
    """A character-edit program.

    ``base_edits`` address positions of the unit before any edit;
    ``case_edits`` and ``diacritic_edits`` address positions of the string
    produced by the base edits. An empty program is the identity.
    """

    base_edits: tuple[CharEdit, ...] = ()
    case_edits: tuple[CharEdit, ...] = ()
    diacritic_edits: tuple[CharEdit, ...] = ()


@dataclass(frozen=True)
class StringTransformation:
    """Whole-unit rule: keep, replace, or attach a string before/after."""

    op: str
    payload: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("keep", "replace", "prepend", "append"):
            raise ValueError(f"unknown string op: {self.op!r}")
        if self.op == "keep" and self.payload:
            raise ValueError("keep takes no payload")
        if self.op != "keep" and not self.payload:
            raise ValueError(f"{self.op} requires a non-empty payload")


@dataclass(frozen=True)
class UncorrectableMarker:
    """Distinguished label: no transformation produces the correction.

    Decoded as identity.
    """


KEEP = StringTransformation("keep")
UNCORRECTABLE = UncorrectableMarker()

Transformation = CharTransformation | StringTransformation | UncorrectableMarker


def minimal_edit_script(src, dst) -> list[tuple[int, str, str]]:
    """Smallest insert/replace/delete script turning ``src`` into ``dst``.

    Works over strings or token lists. Positions are 1-based over ``src``; an
    insert at position p lands before ``src[p-1]``, with p = len(src)+1
    appending at the end. At equal cost the backtrace prefers match, then
    replace, delete, insert. Script length equals the edit distance.
    """
    if src == dst:
        return []  # no table to fill: case- and diacritic-only units land here
    n, m = len(src), len(dst)
    dist = [list(range(m + 1))]
    for i, sc in enumerate(src, 1):
        prev = dist[-1]
        row = [i]
        left = i
        for j, dc in enumerate(dst):
            # left = min(left + 1, prev[j + 1] + 1, prev[j] + (sc != dc)), without a call
            up = prev[j + 1] + 1
            diag = prev[j] + (sc != dc)
            left += 1
            if up < left:
                left = up
            if diag < left:
                left = diag
            row.append(left)
        dist.append(row)
    ops: list[tuple[int, str, str]] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and src[i - 1] == dst[j - 1] and here == dist[i - 1][j - 1]:
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and here == dist[i - 1][j - 1] + 1:
            ops.append((i, REPLACE, dst[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and here == dist[i - 1][j] + 1:
            ops.append((i, DELETE, ""))
            i -= 1
        else:
            ops.append((i + 1, INSERT, dst[j - 1]))
            j -= 1
    ops.reverse()
    return ops


def _ceil_half(n: int) -> int:
    return -(-n // 2)


def _anchor_position(pos: int, length: int) -> tuple[str, int]:
    # Character positions 1..length; first half anchors from the start.
    if pos <= _ceil_half(length):
        return FROM_START, pos
    return FROM_END, length - pos + 1


def _anchor_gap(gap: int, length: int) -> tuple[str, int]:
    # Insertion gaps 1..length+1; the gap before character i shares its index,
    # and the append-at-end gap is from_end index 1.
    if gap <= _ceil_half(length):
        return FROM_START, gap
    return FROM_END, length + 2 - gap


def build_char_transformation(
    unit: str, span: str, casing: CasingMode
) -> CharTransformation:
    """Construct the character program rewriting ``unit`` into ``span``.

    Raises UnreachableSpanError when no program reaches the span, which
    happens when a unit character would have to be lowercased in place. Cased
    ``istanbul`` -> ``İstanbul`` is unreachable too: ``"i".upper()`` is ``I``,
    and ``"İ".lower()`` is two code points, so the length check fails.
    Uncased mode reaches it with an uppercase and a diacritic edit.
    """
    src = fold(unit, casing).lower()
    dst = fold(span, casing).lower()
    n = len(src)
    base = []
    for pos, kind, payload in minimal_edit_script(src, dst):
        if kind == INSERT:
            anchor, index = _anchor_gap(pos, n)
        else:
            anchor, index = _anchor_position(pos, n)
        base.append(CharEdit(kind, anchor, index, payload))
    # one character a cell (every payload is one), so positions are offsets
    cells = _apply_base(base, unit)
    if cells is None or len(cells) != len(span):
        raise UnreachableSpanError(f"cannot rewrite {unit!r} into {span!r}")
    m = len(span)
    ups = case_diff("".join(cells), span)
    for pos in ups:
        cells[pos - 1] = cells[pos - 1].upper()
    case = tuple(CharEdit(UPPERCASE, *_anchor_position(pos, m)) for pos in ups)
    dia: list[CharEdit] = []
    if casing is CasingMode.UNCASED:
        for idx, (have, want) in enumerate(zip(cells, span)):
            if have == want:
                continue
            if strip_diacritics(want) != have:
                raise UnreachableSpanError(f"cannot rewrite {unit!r} into {span!r}")
            dia.append(CharEdit(SET_DIACRITIC, *_anchor_position(idx + 1, m), want))
            cells[idx] = want
    if "".join(cells) != span:  # an uppercase that changes length, or a downcase
        raise UnreachableSpanError(f"cannot rewrite {unit!r} into {span!r}")
    return CharTransformation(tuple(base), case, tuple(dia))


def _resolve_position(edit: CharEdit, length: int) -> int:
    return edit.index if edit.anchor == FROM_START else length - edit.index + 1


def _resolve_gap(edit: CharEdit, length: int) -> int:
    return edit.index if edit.anchor == FROM_START else length + 2 - edit.index


def apply_char_transformation(t: CharTransformation, unit: str) -> str | None:
    """Apply a character program to an arbitrary unit.

    Returns None when the program does not fit the unit: an index resolves out
    of range, two base edits collide on one position, or a diacritic payload
    does not match the character it replaces.
    """
    cells = _apply_base(t.base_edits, unit)
    if cells is None:
        return None
    m = len(cells)
    for edit in t.case_edits:
        pos = _resolve_position(edit, m)
        if not 1 <= pos <= m:
            return None
        cells[pos - 1] = cells[pos - 1].upper()
    for edit in t.diacritic_edits:
        pos = _resolve_position(edit, m)
        if not 1 <= pos <= m:
            return None
        if strip_diacritics(edit.payload) != cells[pos - 1]:
            return None
        cells[pos - 1] = edit.payload
    return "".join(cells)


def _apply_base(edits: list[CharEdit] | tuple[CharEdit, ...], unit: str) -> list[str] | None:
    """The cells of ``unit`` after its base edits: a character or a payload each, or None."""
    n = len(unit)
    inserts: dict[int, list[str]] = {}
    pointwise: dict[int, tuple[str, str]] = {}
    for edit in edits:
        if edit.kind == INSERT:
            gap = _resolve_gap(edit, n)
            if not 1 <= gap <= n + 1:
                return None
            inserts.setdefault(gap, []).append(edit.payload)
        else:
            pos = _resolve_position(edit, n)
            if not 1 <= pos <= n or pos in pointwise:
                return None
            pointwise[pos] = (edit.kind, edit.payload)
    out: list[str] = []
    for p in range(1, n + 2):
        out.extend(inserts.get(p, ()))
        if p <= n:
            action = pointwise.get(p)
            if action is None:
                out.append(unit[p - 1])
            elif action[0] == REPLACE:
                out.append(action[1])
    return out


def build_string_transformation(unit: str, span: str) -> StringTransformation:
    """keep on equality, append/prepend when the unit survives, else replace."""
    if span == unit:
        return KEEP
    if not span:
        # The string repertoire cannot erase a unit: every payload is non-empty.
        raise UnreachableSpanError(f"cannot erase {unit!r} with a string rule")
    if unit and span.startswith(unit):
        return StringTransformation("append", span[len(unit) :])
    if unit and span.endswith(unit):
        return StringTransformation("prepend", span[: len(span) - len(unit)])
    return StringTransformation("replace", span)


def apply_string_transformation(t: StringTransformation, unit: str) -> str:
    if t.op == "keep":
        return unit
    if t.op == "replace":
        return t.payload
    if t.op == "append":
        return unit + t.payload
    return t.payload + unit


def apply_transformation(t: Transformation, unit: str) -> str | None:
    """Apply any transformation; the uncorrectable marker decodes as identity."""
    if isinstance(t, UncorrectableMarker):
        return unit
    if isinstance(t, StringTransformation):
        return apply_string_transformation(t, unit)
    return apply_char_transformation(t, unit)


# --- serialization -----------------------------------------------------------
#
# One transformation per line:
#   KEEP | UNCORRECTABLE | REPLACE <str> | PREPEND <str> | APPEND <str>
#   | CHAR <edit>(;<edit>)*
# with <edit> = ins@{s|e}<idx>=<str> | rep@{s|e}<idx>=<str> | del@{s|e}<idx>
#   | upc@{s|e}<idx> | dia@{s|e}<idx>=<char>
# Payload strings percent-encode percent, space, semicolon and newline.

_EDIT_RE = re.compile(r"^(ins|rep|del|upc|dia)@([se])([0-9]+)(?:=(.*))?$")


# one table for both directions; decoding reads left to right, without overlaps
_ESCAPES = {"%": "%25", " ": "%20", ";": "%3B", "\n": "%0A"}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_UNESCAPES = {code: ch for ch, code in _ESCAPES.items()}
_UNESCAPE_RE = re.compile("|".join(_UNESCAPES))


def _encode_payload(s: str) -> str:
    return s.translate(_ESCAPE_TABLE)


def _decode_payload(s: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES[m[0]], s)


def _serialize_edit(edit: CharEdit) -> str:
    head = f"{edit.kind}@{edit.anchor}{edit.index}"
    if edit.kind in _PAYLOAD_KINDS:
        return f"{head}={_encode_payload(edit.payload)}"
    return head


def serialize_transformation(t: Transformation) -> str:
    if isinstance(t, UncorrectableMarker):
        return "UNCORRECTABLE"
    if isinstance(t, StringTransformation):
        if t.op == "keep":
            return "KEEP"
        return f"{t.op.upper()} {_encode_payload(t.payload)}"
    edits = list(t.base_edits) + list(t.case_edits) + list(t.diacritic_edits)
    if not edits:
        return "CHAR"
    return "CHAR " + ";".join(_serialize_edit(e) for e in edits)


def parse_transformation(line: str) -> Transformation:
    if line == "UNCORRECTABLE":
        return UNCORRECTABLE
    if line == "KEEP":
        return KEEP
    for op in ("replace", "prepend", "append"):
        prefix = op.upper() + " "
        if line.startswith(prefix):
            payload = _decode_payload(line[len(prefix) :])
            try:
                return StringTransformation(op, payload)
            except ValueError as exc:
                raise FormatError(str(exc)) from None
    if line == "CHAR":
        return CharTransformation()
    if line.startswith("CHAR "):
        base, case, dia = [], [], []
        for chunk in line[5:].split(";"):
            m = _EDIT_RE.match(chunk)
            if m is None:
                raise FormatError(f"malformed edit: {chunk!r}")
            kind, anchor, index, payload = m.group(1), m.group(2), m.group(3), m.group(4)
            if (payload is not None) != (kind in _PAYLOAD_KINDS):
                raise FormatError(f"malformed edit: {chunk!r}")
            try:
                edit = CharEdit(
                    kind, anchor, int(index), _decode_payload(payload or "")
                )
            except ValueError as exc:
                raise FormatError(str(exc)) from None
            if kind in _BASE_KINDS:
                base.append(edit)
            elif kind == UPPERCASE:
                case.append(edit)
            else:
                dia.append(edit)
        return CharTransformation(tuple(base), tuple(case), tuple(dia))
    raise FormatError(f"unrecognized transformation: {line!r}")
