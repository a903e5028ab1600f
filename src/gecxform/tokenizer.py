"""Subword tokenization with the leading-space word convention.

A sentence tokenizes to a list of subword texts. The first subword of every
word carries one prepended space; continuation subwords carry no marker, and
words hold no whitespace, so a word starts exactly at each subword that
begins with the space. Concatenating the subword texts of a sentence and
trimming the single leading space therefore reproduces the (mode-normalized)
sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import load_text, split_lines
from .errors import FormatError
from .textnorm import CasingMode, fold

WORD_LEAD = " "

_KINDS = ("word", "vocab", "chars")


@dataclass(frozen=True)
class TokenizerMode:
    """How sentences split into subwords.

    kind "word": one subword per whitespace token.
    kind "vocab": greedy longest-prefix matching against a piece vocabulary;
        word-initial pieces are stored with a leading space. Characters not
        coverable by the vocabulary fall back to single-character pieces.
    kind "chars": fixed chunks of ``chunk_size`` characters per word.
    """

    kind: str
    vocab: frozenset[str] | None = None
    chunk_size: int = 1
    # the length of the longest vocabulary piece, set by __post_init__
    max_piece: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown tokenizer kind: {self.kind!r}")
        if self.kind == "vocab":
            if not self.vocab:
                raise ValueError("vocab tokenizer requires a non-empty vocabulary")
            for piece in self.vocab:
                _check_piece(piece)
            object.__setattr__(self, "max_piece", max(map(len, self.vocab)))
        if self.kind == "chars" and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    @classmethod
    def word(cls) -> "TokenizerMode":
        return cls("word")

    @classmethod
    def vocab_greedy(cls, pieces) -> "TokenizerMode":
        return cls("vocab", vocab=frozenset(pieces))

    @classmethod
    def char_chunks(cls, k: int) -> "TokenizerMode":
        return cls("chars", chunk_size=k)


def _check_piece(piece: str) -> None:
    if not piece or piece == WORD_LEAD:
        raise ValueError(f"invalid vocabulary piece: {piece!r}")
    body = piece[1:] if piece.startswith(WORD_LEAD) else piece
    if not body or any(ch.isspace() for ch in body):
        raise ValueError(f"invalid vocabulary piece: {piece!r}")


def tokenize(sentence: str, mode: TokenizerMode, casing: CasingMode) -> list[str]:
    """Split ``sentence`` into subword texts; word boundaries follow whitespace.

    In uncased mode the subword texts are lowercased, diacritics-stripped
    views of the input.
    """
    words = fold(sentence, casing).split()
    if not words:
        raise ValueError("cannot tokenize an empty sentence")
    pieces: list[str] = []
    for word in words:
        spaced = WORD_LEAD + word
        if mode.kind == "word":
            pieces.append(spaced)
        elif mode.kind == "chars":
            k = mode.chunk_size
            pieces.append(WORD_LEAD + word[:k])
            pieces.extend(word[i : i + k] for i in range(k, len(word), k))
        else:
            pieces.extend(_greedy_pieces(spaced, mode.vocab, mode.max_piece))
    return pieces


def _greedy_pieces(spaced: str, vocab: frozenset[str], max_piece: int) -> list[str]:
    # Longest matching piece first; restart right after the match. Unknown
    # characters emit a single-character piece (the leading space travels
    # with the first character of the word).
    pieces = []
    pos = 0
    n = len(spaced)
    while pos < n:
        limit = min(n - pos, max_piece)
        match = None
        for length in range(limit, 0, -1):
            cand = spaced[pos : pos + length]
            if cand in vocab:
                match = cand
                break
        if match is None:
            match = spaced[pos : pos + 2] if pos == 0 else spaced[pos]
        pieces.append(match)
        pos += len(match)
    return pieces


def group_words(subwords: list[str]) -> list[tuple[str, tuple[int, int]]]:
    """One ``(word_text, (start, end))`` entry per word, over subword indices.

    A word starts at each subword that begins with ``WORD_LEAD``. The word
    text is the concatenation of its subword texts and keeps the leading
    space.
    """
    starts = [i for i, piece in enumerate(subwords) if piece.startswith(WORD_LEAD)]
    ends = starts[1:] + [len(subwords)]
    return [("".join(subwords[a:b]), (a, b)) for a, b in zip(starts, ends)]


def detokenize(units: list[str]) -> str:
    """Invert the space convention: concatenate and trim the single leading space."""
    return "".join(units).removeprefix(WORD_LEAD)


def load_vocab(path: str | Path, casing: CasingMode = CasingMode.CASED) -> frozenset[str]:
    """Read a vocabulary file: UTF-8, one piece per line, leading space significant.

    In uncased mode every piece must already be lowercase and undiacritized.
    """
    return load_text(path, _parse_vocab, casing)


def _parse_vocab(text: str, casing: CasingMode) -> frozenset[str]:
    pieces = []
    for lineno, raw in enumerate(split_lines(text), 1):
        try:
            _check_piece(raw)
            if casing is CasingMode.UNCASED and fold(raw, casing) != raw:
                raise ValueError(f"piece {raw!r} is not valid for uncased mode")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        pieces.append(raw)
    if not pieces:
        raise FormatError("empty vocabulary")
    return frozenset(pieces)
