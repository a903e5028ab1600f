"""Normalization primitives: lowercasing, diacritics stripping, punctuation folding.

Everything in this module is a pure function over immutable values;
:func:`strip_diacritics` memoizes single characters without changing that.
"""

from __future__ import annotations

import unicodedata
from enum import Enum

# Any punctuation character is folded to this placeholder during alignment.
# Only equality between folded characters matters, so the choice is arbitrary.
PUNCT_PLACEHOLDER = "."

# Currency and math symbols count as punctuation alongside the P* categories.
_SYMBOL_PUNCT_CATEGORIES = frozenset({"Sc", "Sm"})


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


def is_alignment_punct(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat.startswith("P") or cat in _SYMBOL_PUNCT_CATEGORIES


# strip_diacritics of each single non-ASCII character read so far; a pure
# function of one code point, so it holds at most one entry per character
_STRIPPED_CHARS: dict[str, str] = {}


def strip_diacritics(text: str) -> str:
    """Drop all combining marks after canonical decomposition, then recompose.

    Base letters are preserved in order; standalone combining marks vanish.
    Idempotent. ASCII text is returned as it is: it has no combining marks and
    no decompositions. A single non-ASCII character is stripped once and then
    read from a module table, as rule builds, decodes and the label filter
    strip one character at a time.
    """
    if text.isascii():
        return text
    single = len(text) == 1
    if single:
        stripped = _STRIPPED_CHARS.get(text)
        if stripped is not None:
            return stripped
    decomposed = unicodedata.normalize("NFD", text)
    kept = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    stripped = unicodedata.normalize("NFC", kept)
    if single:
        _STRIPPED_CHARS[text] = stripped
    return stripped


def alignment_cuts(text: str, folds: dict[str, str]) -> tuple[str, list[int]]:
    """:func:`alignment_normalize` of ``text`` and the offsets in ``text`` of its cut points.

    A normalized span ``[a, b)`` is the original substring
    ``text[cuts[a]:cuts[b]]``. Cut ``k`` is the offset of the character that
    produced normalized character ``k``, so characters that vanish under
    normalization attach to the preceding cut; the first cut is 0 and the
    last is ``len(text)`` (the only cut, if nothing is left). A fold may
    lengthen a character (U+0F43 folds to U+0F42 U+0FB7), so there may be
    more cuts than characters of ``text``.
    """
    normalized = alignment_normalize(text, folds)
    cuts = [idx for idx, ch in enumerate(text) for _ in folds[ch]]
    if cuts:
        cuts[0] = 0
    cuts.append(len(text))
    return normalized, cuts


def alignment_normalize(text: str, folds: dict[str, str]) -> str:
    """Fold ``text`` for alignment, one character at a time. Idempotent.

    Lowercases, strips diacritics, folds every punctuation character to
    :data:`PUNCT_PLACEHOLDER` and every whitespace character to a single space.
    ``folds`` memoizes the fold of each character; texts folded together
    share one.
    """
    for ch in set(text).difference(folds):
        if ch.isspace():
            folds[ch] = " "
        elif is_alignment_punct(ch):
            folds[ch] = PUNCT_PLACEHOLDER
        else:
            folds[ch] = strip_diacritics(ch).lower()
    return "".join(map(folds.__getitem__, text))


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
    """Casing-mode view of ``text``: identity when cased, lower and strip when uncased."""
    if casing is CasingMode.UNCASED:
        return strip_diacritics(text).lower()
    return text
