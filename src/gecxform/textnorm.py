"""Normalization primitives: lowercasing, diacritics stripping, punctuation folding.

Everything in this module is a pure function over immutable values.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
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


def strip_diacritics(text: str) -> str:
    """Drop all combining marks after canonical decomposition, then recompose.

    Base letters are preserved in order; standalone combining marks vanish.
    Idempotent. ASCII text is returned as it is: it has no combining marks and
    no decompositions.
    """
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFD", text)
    kept = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return unicodedata.normalize("NFC", kept)


@dataclass(frozen=True)
class NormalizedView:
    """A normalized rendering of a string with per-character provenance.

    ``provenance[k]`` is the index in ``original`` of the character that
    produced ``normalized[k]``; it is monotone non-decreasing. Characters that
    vanish under normalization attach to the preceding cut when offsets are
    mapped back through :meth:`boundaries`.
    """

    original: str
    normalized: str
    provenance: tuple[int, ...]

    def boundaries(self) -> list[int]:
        """Offsets into ``original`` for every cut point of ``normalized``.

        ``boundaries()[a:b]`` brackets convert a normalized span ``[a, b)``
        into the original substring ``original[boundaries()[a]:boundaries()[b]]``.
        """
        n = len(self.normalized)
        cuts = [0] * (n + 1)
        for k in range(1, n):
            cuts[k] = self.provenance[k]
        cuts[n] = len(self.original)
        return cuts


def alignment_normalized_view(text: str, folds: dict[str, str]) -> NormalizedView:
    """:func:`alignment_normalize` of ``text``, keeping a map back to original offsets."""
    normalized = alignment_normalize(text, folds)
    provenance = tuple([idx for idx, ch in enumerate(text) for _ in folds[ch]])
    return NormalizedView(text, normalized, provenance)


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
