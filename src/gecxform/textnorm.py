"""Normalization primitives: lowercasing, diacritics stripping, punctuation folding.

Everything in this module is a pure function over immutable values. Two
module tables memoize single characters without changing that: the stripped
form of each non-ASCII character, behind :func:`strip_diacritics`, and the
uncased fold of each character, behind :func:`fold`. The tokenizer, the
alignment and the label filter all fold through the second, one character at
a time.
"""

from __future__ import annotations

import unicodedata
from enum import Enum

# Any punctuation character is folded to this placeholder during alignment.
# Only equality between folded characters matters, so the choice is arbitrary.
PUNCT_PLACEHOLDER = "."


class CasingMode(Enum):
    """Whether the pipeline preserves casing and diacritics or strips both."""

    CASED = "cased"
    UNCASED = "uncased"

    @classmethod
    def parse(cls, name: str) -> "CasingMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValueError(f"unknown casing mode: {name!r}")


class _CharTable(dict):
    """A pure function of one character, computed on the character's first read and then kept."""

    def __init__(self, function) -> None:
        super().__init__()
        self.function = function

    def __missing__(self, ch: str) -> str:
        value = self[ch] = self.function(ch)
        return value


def _strip(text: str) -> str:
    decomposed = unicodedata.normalize("NFD", text)
    kept = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return unicodedata.normalize("NFC", kept)


# strip_diacritics of each single non-ASCII character read so far
_STRIPPED_CHARS = _CharTable(_strip)


def strip_diacritics(text: str) -> str:
    """Drop all combining marks after canonical decomposition, then recompose.

    Base letters are preserved in order; standalone combining marks vanish.
    Idempotent. ASCII text is returned as it is: it has no combining marks and
    no decompositions. A single non-ASCII character is stripped once and then
    read from a module table, as rule builds, decodes, the label index and
    the fold table strip one character at a time.
    """
    if text.isascii():
        return text
    return _STRIPPED_CHARS[text] if len(text) == 1 else _strip(text)


# fold(ch, UNCASED) of each single character read so far
_FOLDED_CHARS = _CharTable(lambda ch: strip_diacritics(ch).lower())


def alignment_cuts(text: str) -> tuple[str, list[int]]:
    """:func:`alignment_normalize` of ``text`` and the offsets in ``text`` of its cut points.

    A normalized span ``[a, b)`` is the original substring
    ``text[cuts[a]:cuts[b]]``. Cut ``k`` is the offset of the character that
    produced normalized character ``k``, so characters that vanish under
    normalization attach to the preceding cut; the first cut is 0 and the
    last is ``len(text)`` (the only cut, if nothing is left). A fold may
    lengthen a character (U+0F43 folds to U+0F42 U+0FB7), so there may be
    more cuts than characters of ``text``. A letter folds through the table
    behind :func:`fold`, which the tokenizer and the label filter read too,
    so the alignment and the uncased fold agree on every letter (a word-final
    ``Σ`` is ``σ`` in both), and a unit's folded text can be cut by offsets.
    """
    folded = list(map(_alignment_fold, text))
    cuts = [idx for idx, f in enumerate(folded) for _ in f]
    if cuts:
        cuts[0] = 0
    cuts.append(len(text))
    return "".join(folded), cuts


def alignment_normalize(text: str) -> str:
    """Fold ``text`` for alignment, one character at a time. Idempotent.

    Every whitespace character folds to a single space, every punctuation
    character to :data:`PUNCT_PLACEHOLDER`, and any other character to its
    uncased :func:`fold`.
    """
    return "".join(map(_alignment_fold, text))


def _alignment_fold(ch: str) -> str:
    if ch.isspace():
        return " "
    # currency and math symbols count as punctuation alongside the P* categories
    category = unicodedata.category(ch)
    if category.startswith("P") or category in ("Sc", "Sm"):
        return PUNCT_PLACEHOLDER
    return _FOLDED_CHARS[ch]


def case_diff(lowercased: str, target: str) -> list[int]:
    """1-based positions where ``target`` is uppercase and ``lowercased`` is not."""
    if len(lowercased) != len(target):
        raise ValueError(
            f"case_diff requires equal lengths, got {len(lowercased)} and {len(target)}"
        )
    return [
        i + 1
        for i, (have, want) in enumerate(zip(lowercased, target))
        if want.isupper() and not have.isupper()
    ]


def fold(text: str, casing: CasingMode) -> str:
    """Casing-mode view of ``text``: identity when cased, lower and strip when uncased.

    The uncased fold is the join of the folds of the characters of ``text``:
    each is stripped of diacritics and then lowercased on its own, once, and
    kept in a module table; ASCII text is lowercased at once. So a word-final
    ``Σ`` folds to ``σ``, as it does alone, not to the ``ς`` that
    ``str.lower`` gives it in context; and two characters with a combining
    mark between them (conjoining jamo, some Indic vowel signs) stay apart
    where stripping the whole text would compose them. :func:`alignment_cuts`
    folds every letter through the same table.
    """
    if casing is CasingMode.CASED:
        return text
    if text.isascii():
        return text.lower()
    return "".join(map(_FOLDED_CHARS.__getitem__, text))
