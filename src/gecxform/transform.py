"""Transformation dictionaries: induction over a corpus, label encoding, decoding.

A dictionary is induced per granularity (character or string programs, applied
per subword or per word) by aligning every sentence pair, cutting the gold
span of each unit, and counting the transformation that rewrites the unit into
its span. A unit's label belongs to the dictionary, which memoizes it: the
built transformation's id, else the lowest-id entry that rewrites the unit into
its span, else uncorrectable. Decoding applies the labelled transformation per
unit; uncorrectable and inapplicable labels leave the unit unchanged.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .align import align
from .corpus import load_text, split_lines
from .editscript import (
    DELETE,
    KEEP,
    REPLACE,
    UNCORRECTABLE,
    CharTransformation,
    StringTransformation,
    Transformation,
    UncorrectableMarker,
    UnreachableSpanError,
    apply_transformation,
    build_char_transformation,
    build_string_transformation,
    parse_transformation,
    serialize_transformation,
)
from .errors import FormatError
from .textnorm import CasingMode, fold, strip_diacritics
from .tokenizer import TokenizerMode, detokenize, group_words, tokenize

log = logging.getLogger(__name__)

UNCORRECTABLE_ID = 0
KEEP_ID = 1

_GRAINS = ("char", "string")
_UNITS = ("subword", "word")
_GRAIN_RULES = {"char": CharTransformation, "string": StringTransformation}

DEFAULT_SYNTHETIC_LIMIT = 1000  # synthetic pairs pooled into induction at most


@dataclass(frozen=True)
class GranularityMode:
    """One of the four transformation granularities, e.g. char-at-subword."""

    grain: str
    unit: str

    def __post_init__(self) -> None:
        if self.grain not in _GRAINS or self.unit not in _UNITS:
            raise ValueError(f"invalid granularity: {self.grain}-at-{self.unit}")

    @property
    def label(self) -> str:
        return f"{self.grain}-at-{self.unit}"

    @classmethod
    def parse(cls, label: str) -> "GranularityMode":
        parts = label.split("-at-")
        if len(parts) != 2:
            raise ValueError(f"invalid granularity label: {label!r}")
        return cls(parts[0], parts[1])


ALL_MODES = tuple(
    GranularityMode(grain, unit) for grain in _GRAINS for unit in _UNITS
)


@dataclass(frozen=True)
class DictEntry:
    ident: int
    count: int
    transformation: Transformation


class EntryError(ValueError):
    """An entry breaks a dictionary invariant; ``index`` is its position."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


@dataclass
class TransformationDictionary:
    """Induced label set. Entry 0 is always uncorrectable and entry 1 keep."""

    mode: GranularityMode
    casing: CasingMode
    min_count: int
    entries: tuple[DictEntry, ...]
    _by_value: dict = field(init=False, repr=False, compare=False)
    _labels: dict = field(init=False, repr=False, compare=False)
    _index: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.entries) < 2:
            raise EntryError(len(self.entries), "dictionary must contain uncorrectable and keep")
        if not isinstance(self.entries[UNCORRECTABLE_ID].transformation, UncorrectableMarker):
            raise EntryError(UNCORRECTABLE_ID, "entry 0 must be the uncorrectable marker")
        if self.entries[KEEP_ID].transformation != KEEP:
            raise EntryError(KEEP_ID, "entry 1 must be keep")
        self._by_value = {}
        for i, entry in enumerate(self.entries):
            if entry.ident != i:
                raise EntryError(i, "entry ids must be dense and ascending")
            if self._by_value.setdefault(entry.transformation, i) != i:
                raise EntryError(i, "dictionary entries must be unique")
        self._labels = {}
        self._index = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def lookup(self, transformation: Transformation) -> int | None:
        return self._by_value.get(transformation)

    def transformation_for(self, ident: int) -> Transformation:
        if not 0 <= ident < len(self.entries):
            raise KeyError(f"label id {ident} not in dictionary")
        return self.entries[ident].transformation

    def label(self, unit: str, span: str, builds: BuildMemo | None = None) -> int:
        """Id of the entry encoding ``unit`` -> ``span``, memoized by the pair.

        The built transformation's id if present, else the lowest id (the most
        frequent rule) whose application yields the span, else uncorrectable.
        ``builds`` is passed on to :func:`build_unit_transformation`.

        On a miss, only the entries that can yield the span are applied, in id
        order and through ``apply_transformation``: string rules by lookup
        (``REPLACE`` of the span, ``APPEND`` or ``PREPEND`` of what the span
        adds to the unit, ``KEEP``), character rules from an index built on
        the first miss (:func:`_char_index`).
        """
        key = (unit, span)
        if key not in self._labels:
            built = build_unit_transformation(unit, span, self.mode.grain, self.casing, builds)
            ident = None if built is None else self.lookup(built)
            if ident is None:
                ident = next(
                    (i for i in self._candidates(unit, span)
                     if apply_transformation(self.entries[i].transformation, unit) == span),
                    UNCORRECTABLE_ID,
                )
            self._labels[key] = ident
        return self._labels[key]

    def _candidates(self, unit: str, span: str) -> list[int]:
        """The ids, ascending, of the entries in ``entries[1:]`` that can give ``span``."""
        if self._index is None:
            self._index = _char_index(self.entries)
        by_delta, loose = self._index
        delta = len(span) - len(unit)
        if len(unit.upper()) > len(unit):  # an uppercase may lengthen the output
            buckets = [rules for d, rules in by_delta.items() if d <= delta]
        else:
            buckets = [by_delta.get(delta, ())]
        folded, chars = _folded_chars(span), set(span)
        ids = [
            i for rules in (*buckets, loose) for i, folds, marks in rules
            if folds <= folded and marks <= chars
        ]
        after = span[len(unit) :] if span.startswith(unit) else ""
        before = span[: len(span) - len(unit)] if span.endswith(unit) else ""
        for op, text in (("replace", span), ("append", after), ("prepend", before)):
            if text and (i := self._by_value.get(StringTransformation(op, text))) is not None:
                ids.append(i)
        if unit == span:
            ids.append(KEEP_ID)
        return sorted(ids)


def _folded_chars(text: str) -> set[str]:
    """The characters of ``text`` folded one at a time: lowercased, diacritics stripped."""
    return {f for c in set(text) for f in fold(c, CasingMode.UNCASED)}


def _char_index(entries: tuple[DictEntry, ...]):
    """The character rules of ``entries`` as ``(by_delta, loose)``, for ``label``.

    A rule ``(id, folds, marks)`` is skipped only on a condition that all of
    its outputs meet. *Length*: the base edits give ``len(unit) + delta``
    characters, a payload counting its length. An uppercase can lengthen a
    cell (``ß`` -> ``SS``) and a diacritic edit writes one character over
    what its payload strips to, so rules with such payloads are ``loose``
    (any length), and a unit that uppercases longer takes every ``delta``
    up to the span's. *Characters*: a written character ends as itself,
    uppercased, or under a diacritic payload that strips to it, so its fold
    (``_folded_chars``) is in the folded span unless uppercasing changes it
    (``ı`` -> ``I``); ``folds`` holds the others and the payloads without a
    diacritic. A payload with one stays as it is (any later payload strips
    to a character without one): ``marks`` must be in the span.
    """
    by_delta: dict[int, list[tuple[int, set[str], set[str]]]] = {}
    loose = []
    for entry in entries[2:]:
        t = entry.transformation
        if not isinstance(t, CharTransformation):
            continue
        delta = 0
        folds: set[str] = set()
        grows = False
        for edit in t.base_edits:
            delta += -1 if edit.kind == DELETE else len(edit.payload) - (edit.kind == REPLACE)
            for c in edit.payload:
                upper = c.upper()
                grows = grows or len(upper) > 1
                if _folded_chars(c) <= _folded_chars(upper) & _folded_chars(upper.upper()):
                    folds |= _folded_chars(c)
        marks: set[str] = set()
        shrinks = False
        for edit in t.diacritic_edits:
            bare = strip_diacritics(edit.payload)
            if bare == edit.payload:
                folds |= _folded_chars(bare)
            else:
                marks.add(edit.payload)
            shrinks = shrinks or len(bare) > 1
        rule = (entry.ident, folds, marks)
        if (grows and t.case_edits) or shrinks:
            loose.append(rule)
        else:
            by_delta.setdefault(delta, []).append(rule)
    return by_delta, loose


@dataclass(frozen=True)
class LabeledSentence:
    units: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.units) != len(self.labels):
            raise ValueError("units and labels must have equal length")


# Alignment memo: the DP's input, ``(tuple(subwords), gold)``, maps to the gold
# span texts of the subwords, or to None when the pair cannot be aligned. The
# oracle keeps one per call (gecxform.evaluate.OracleMemo); no memo is global.
AlignmentMemo = dict[tuple[tuple[str, ...], str], list[str] | None]

# Build memo: ``(unit, span, grain, casing)`` maps to the result of
# build_unit_transformation. The oracle keeps one per call, like alignments.
BuildMemo = dict[tuple[str, str, str, CasingMode], Transformation | None]


def _units_by_kind(
    source: str,
    gold: str,
    casing: CasingMode,
    tokenizer: TokenizerMode,
    alignments: AlignmentMemo | None = None,
) -> dict[str, tuple[list[str], list[str]]]:
    """Tokenize and align once; the (units, spans) lists of each unit kind."""
    subwords = tokenize(source, tokenizer, casing)
    if alignments is None:
        alignments = {}
    key = (tuple(subwords), gold)
    if key not in alignments:
        try:
            alignments[key] = align(subwords, gold).span_texts
        except ValueError:
            alignments[key] = None
            raise
    spans = alignments[key]
    if spans is None:
        raise ValueError(f"cannot align {subwords!r} to {gold!r}")
    words = group_words(subwords)
    word_spans = ["".join(spans[a:b]) for _, (a, b) in words]
    return {"subword": (subwords, spans), "word": ([w for w, _ in words], word_spans)}


def unit_pairs(
    source: str,
    gold: str,
    mode: GranularityMode,
    casing: CasingMode,
    tokenizer: TokenizerMode,
    alignments: AlignmentMemo | None = None,
) -> tuple[list[str], list[str]]:
    """Tokenize, align, and cut one gold span per unit of the requested mode.

    ``alignments`` memoizes the alignment by its input: a source that
    tokenizes to subwords already aligned to ``gold`` reuses their spans.
    """
    return _units_by_kind(source, gold, casing, tokenizer, alignments)[mode.unit]


def build_unit_transformation(
    unit: str, span: str, grain: str, casing: CasingMode, builds: BuildMemo | None = None
) -> Transformation | None:
    """Transformation rewriting unit into span, or None when unreachable.

    Identity pairs canonicalize to KEEP in both grains so dictionaries share
    one keep entry. ``builds`` memoizes the result by all four arguments;
    the memo is read here rather than by the callers, so every request, hit
    or miss, is still a call of this function.
    """
    if builds is None:
        return _build_unit(unit, span, grain, casing)
    key = (unit, span, grain, casing)
    if key not in builds:
        builds[key] = _build_unit(unit, span, grain, casing)
    return builds[key]


def _build_unit(unit: str, span: str, grain: str, casing: CasingMode) -> Transformation | None:
    if unit == span:
        return KEEP
    try:
        if grain == "char":
            return build_char_transformation(unit, span, casing)
        return build_string_transformation(unit, span)
    except UnreachableSpanError:
        return None


def corpus_unit_data(
    pairs, casing: CasingMode, tokenizer: TokenizerMode, alignments: AlignmentMemo
):
    """Tokenize and align each pair once, filling the ``alignments`` memo.

    Yields, pair by pair, a map from each unit kind to its (units, spans)
    lists. A pair that cannot be processed is skipped with a diagnostic; one
    that tokenizes but cannot be aligned is memoized as None, so later
    lookups skip the DP.
    """
    for pair in pairs:
        try:
            per_pair = _units_by_kind(pair.source, pair.gold, casing, tokenizer, alignments)
        except ValueError as exc:
            log.warning("skipping pair: %s (source=%r)", exc, pair.source)
            continue
        yield per_pair


def counts_from_unit_data(
    data, modes, casing: CasingMode, builds: BuildMemo | None = None
) -> dict[GranularityMode, Counter]:
    """Count each mode's transformation over the pairs ``corpus_unit_data`` yields.

    Each distinct (unit, span) is built once per mode; ``builds`` keeps the
    builds for later encodings.
    """
    occurrences = {mode.unit: Counter() for mode in modes}
    for per_pair in data:
        for kind, counter in occurrences.items():
            counter.update(zip(*per_pair[kind]))
    counters = {mode: Counter() for mode in modes}
    for mode, counter in counters.items():
        for (unit, span), n in occurrences[mode.unit].items():
            t = build_unit_transformation(unit, span, mode.grain, casing, builds)
            counter[UNCORRECTABLE if t is None else t] += n
    return counters


def dictionary_from_counts(
    counts: Counter,
    mode: GranularityMode,
    casing: CasingMode,
    min_count: int,
) -> TransformationDictionary:
    """Threshold the counts and assign stable ids.

    Uncorrectable and keep are always present (ids 0 and 1); the rest are
    ordered by descending frequency, then by serialized form.
    """
    entries = [
        DictEntry(UNCORRECTABLE_ID, counts.get(UNCORRECTABLE, 0), UNCORRECTABLE),
        DictEntry(KEEP_ID, counts.get(KEEP, 0), KEEP),
    ]
    rest = [
        (t, c)
        for t, c in counts.items()
        if c >= min_count and t != KEEP and not isinstance(t, UncorrectableMarker)
    ]
    rest.sort(key=lambda item: (-item[1], serialize_transformation(item[0])))
    for offset, (t, c) in enumerate(rest):
        entries.append(DictEntry(2 + offset, c, t))
    return TransformationDictionary(mode, casing, min_count, tuple(entries))


def induce(
    pairs,
    mode: GranularityMode,
    casing: CasingMode,
    min_count: int = 1,
    synthetic_pairs=(),
    synthetic_limit: int = DEFAULT_SYNTHETIC_LIMIT,
    tokenizer: TokenizerMode = TokenizerMode.word(),
) -> TransformationDictionary:
    """Induce a transformation dictionary from authentic plus capped synthetic pairs.

    Pairs that fail to tokenize or align are skipped with a diagnostic.
    Units whose transformation is unreachable count toward uncorrectable.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if synthetic_limit < 0:
        raise ValueError("synthetic_limit must be >= 0")
    work = list(pairs) + list(synthetic_pairs)[:synthetic_limit]
    if not work:
        raise ValueError("induction requires at least one pair")
    data = corpus_unit_data(work, casing, tokenizer, {})
    counts = counts_from_unit_data(data, (mode,), casing)[mode]
    return dictionary_from_counts(counts, mode, casing, min_count)


def encode(
    source: str,
    gold: str,
    dictionary: TransformationDictionary,
    tokenizer: TokenizerMode = TokenizerMode.word(),
) -> LabeledSentence:
    """Label every unit of ``source`` with the dictionary entry encoding its correction.

    See :meth:`TransformationDictionary.label` for the choice of entry.
    """
    units, spans = unit_pairs(source, gold, dictionary.mode, dictionary.casing, tokenizer)
    labels = tuple(dictionary.label(u, s) for u, s in zip(units, spans))
    return LabeledSentence(tuple(units), labels)


def apply_labels(labeled: LabeledSentence, dictionary: TransformationDictionary) -> str:
    """Decode labels back to text; unknown ids raise, inapplicable labels keep the unit.

    This is the one decode: ``apply`` and the oracle rounds of
    :mod:`gecxform.evaluate` both turn labels into text here and nowhere else.
    """
    out = []
    for unit, ident in zip(labeled.units, labeled.labels):
        result = apply_transformation(dictionary.transformation_for(ident), unit)
        out.append(unit if result is None else result)
    return detokenize(out)


# --- dictionary file format ---------------------------------------------------
#
# UTF-8 text. Header line:
#   mode=<char|string>-at-<subword|word> casing=<cased|uncased> min_count=<n>
# then one entry per line: <id>\t<count>\t<serialized transformation>
# Entries after uncorrectable and keep are rules of the mode's grain.


def dumps_dictionary(dictionary: TransformationDictionary) -> str:
    lines = [
        f"mode={dictionary.mode.label} casing={dictionary.casing.value} "
        f"min_count={dictionary.min_count}"
    ]
    for entry in dictionary.entries:
        lines.append(
            f"{entry.ident}\t{entry.count}\t"
            f"{serialize_transformation(entry.transformation)}"
        )
    return "\n".join(lines) + "\n"


def loads_dictionary(text: str) -> TransformationDictionary:
    lines = split_lines(text)
    if not lines:
        raise FormatError("empty dictionary file")
    header = lines[0].split(" ")
    fields = {}
    for token in header:
        key, sep, value = token.partition("=")
        if not sep or key in fields:
            raise FormatError(f"malformed dictionary header: {lines[0]!r}")
        fields[key] = value
    if set(fields) != {"mode", "casing", "min_count"}:
        raise FormatError(f"malformed dictionary header: {lines[0]!r}")
    try:
        mode = GranularityMode.parse(fields["mode"])
        casing = CasingMode.parse(fields["casing"])
        min_count = int(fields["min_count"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if min_count < 1:
        raise FormatError(f"min_count must be >= 1, got {min_count}")
    entries = []
    for lineno, raw in enumerate(lines[1:], 2):
        parts = raw.split("\t", 2)
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected id, count, transformation")
        try:
            ident, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: malformed entry {raw!r}") from None
        if count < 0:
            raise FormatError(f"line {lineno}: count must be >= 0, got {count}")
        try:
            transformation = parse_transformation(parts[2])
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if ident > KEEP_ID and not isinstance(transformation, _GRAIN_RULES[mode.grain]):
            raise FormatError(f"line {lineno}: {parts[2]!r} is not a {mode.grain} rule")
        entries.append(DictEntry(ident, count, transformation))
    try:
        return TransformationDictionary(mode, casing, min_count, tuple(entries))
    except EntryError as exc:
        raise FormatError(f"line {exc.index + 2}: {exc}") from None


def load_dictionary(path: str | Path) -> TransformationDictionary:
    return load_text(path, loads_dictionary)
