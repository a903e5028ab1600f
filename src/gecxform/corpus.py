"""Parallel-corpus ingestion (M2 and TSV formats) and synthetic error generation."""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import FormatError
from .textnorm import strip_diacritics

NONE_FIELD = "-NONE-"


def load_text(path: str | Path, parse: Callable, *args):
    """Return ``parse(text, *args)`` for an input file; every input file is read here.

    The text is UTF-8 with universal newlines, NFC-normalized: a decomposed
    letter such as ``е`` + U+0308 would otherwise leave a combining mark in an
    uncased gold span, which no rule built from the folded source can produce.
    A non-UTF-8 byte, or a FormatError from ``parse`` (``line N: ...``), becomes
    a FormatError that names the file.
    """
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: not UTF-8") from None
    try:
        return parse(unicodedata.normalize("NFC", text), *args)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class GoldEdit:
    """Span-level annotation over the whitespace tokens of the source line."""

    start_token: int
    end_token: int
    type_tag: str
    correction: str
    annotator: int

    def __post_init__(self) -> None:
        if self.start_token < 0 or self.end_token < self.start_token:
            raise ValueError(f"invalid edit span {self.start_token}..{self.end_token}")
        if self.annotator < 0:
            raise ValueError("annotator must be >= 0")


class SentencePair(NamedTuple):
    source: str
    gold: str
    gold_edits: tuple[GoldEdit, ...] = ()


def _check_edits(edits: list[GoldEdit], n_tokens: int) -> None:
    """Every annotator's edits lie within the ``n_tokens`` source tokens and do not overlap."""
    by_annotator: dict[int, list[GoldEdit]] = {}
    for e in edits:
        if e.end_token > n_tokens:
            raise FormatError(f"edit span {e.start_token}..{e.end_token} exceeds {n_tokens} tokens")
        by_annotator.setdefault(e.annotator, []).append(e)
    for annotator, group in by_annotator.items():
        ordered = sorted(group, key=lambda e: (e.start_token, e.end_token))
        for prev, nxt in zip(ordered, ordered[1:]):
            crossing = nxt.start_token < prev.end_token
            same_gap = (
                prev.start_token == prev.end_token == nxt.start_token == nxt.end_token
            )
            if crossing or same_gap:
                raise FormatError(f"overlapping edits for annotator {annotator}")


def replay_edits(source_tokens: list[str], edits: list[GoldEdit]) -> list[str]:
    """Apply edits right-to-left over the token list and return the result.

    The edits lie within the tokens and do not overlap, as ``parse_m2`` checks.
    """
    tokens = list(source_tokens)
    for e in sorted(edits, key=lambda e: (e.start_token, e.end_token), reverse=True):
        tokens[e.start_token : e.end_token] = e.correction.split()
    return tokens


def parse_m2(text: str, annotator: int = 0) -> list[SentencePair]:
    """Parse M2 blocks: an ``S`` line followed by ``A`` edit lines.

    The gold side is reconstructed by replaying the chosen annotator's edits;
    ``-NONE-`` corrections are treated as empty and noop edits (span -1 -1)
    are dropped. Text with ``A`` lines, noop lines included, but none of the
    chosen annotator is rejected, as it would replay no edit at all.
    """
    pairs: list[SentencePair] = []
    source: str | None = None
    edits: list[GoldEdit] = []
    annotators: set[int] = set()
    start_line = 0

    def finish() -> None:
        nonlocal source, edits
        if source is None:
            return
        tokens = source.split()
        try:
            _check_edits(edits, len(tokens))
        except FormatError as exc:
            raise FormatError(f"block at line {start_line}: {exc}") from None
        gold = " ".join(replay_edits(tokens, [e for e in edits if e.annotator == annotator]))
        pairs.append(SentencePair(source, gold, tuple(edits)))
        source = None
        edits = []

    for lineno, line in enumerate(text.split("\n"), 1):
        if line == "":
            finish()
            continue
        if line.startswith("S "):
            finish()
            source = line[2:]
            start_line = lineno
        elif line.startswith("A "):
            if source is None:
                raise FormatError(f"line {lineno}: A line without an S line")
            edits_fields = line[2:].split("|||")
            if len(edits_fields) != 6:
                raise FormatError(f"line {lineno}: expected 6 A-line fields")
            span = edits_fields[0].split()
            if len(span) != 2:
                raise FormatError(f"line {lineno}: malformed edit span")
            try:
                start, end = int(span[0]), int(span[1])
                annot = int(edits_fields[5])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed A line") from None
            annotators.add(annot)
            if start == end == -1:
                continue
            correction = edits_fields[2]
            if correction == NONE_FIELD:
                correction = ""
            try:
                edits.append(GoldEdit(start, end, edits_fields[1], correction, annot))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    finish()
    if annotators and annotator not in annotators:
        found = ", ".join(map(str, sorted(annotators)))
        raise FormatError(f"no A line of annotator {annotator} (annotators: {found})")
    return pairs


def split_lines(text: str) -> list[str]:
    r"""Lines split at "\n" only (a sentence may hold U+0085); no empty last line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def parse_tsv(text: str) -> list[SentencePair]:
    """Parse ``source<TAB>gold`` lines into pairs without gold edits."""
    pairs = []
    for lineno, line in enumerate(split_lines(text), 1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 2 tab-separated fields")
        pairs.append(SentencePair(fields[0], fields[1]))
    return pairs


# What a TSV sentence cannot hold: the field separator, and the line breaks
# that ``load_text`` reads as "\n".
_TSV_BREAKS = frozenset("\t\n\r")


def serialize_tsv(pairs: list[SentencePair]) -> str:
    """``source<TAB>gold`` lines; a sentence that ``parse_tsv`` could not read back raises."""
    for index, p in enumerate(pairs):
        if not _TSV_BREAKS.isdisjoint(p.source + p.gold):
            raise ValueError(f"pair {index}: a TSV sentence cannot hold a tab or a line break")
    return "".join(f"{p.source}\t{p.gold}\n" for p in pairs)


def load_corpus(path: str | Path, annotator: int = 0) -> list[SentencePair]:
    """Load a corpus by extension: .m2 for M2 blocks, anything else as TSV."""
    if Path(path).suffix.lower() == ".m2":
        return load_text(path, parse_m2, annotator)
    return load_text(path, parse_tsv)


# --- synthetic corruption -----------------------------------------------------


@dataclass(frozen=True)
class CorruptionConfig:
    """Per-operation corruption probabilities.

    The defaults are mild, project-chosen values, not calibrated against any
    reference error distribution.
    """

    substitute_char: float = 0.02
    insert_char: float = 0.02
    delete_char: float = 0.02
    swap_adjacent_chars: float = 0.02
    strip_word_diacritics: float = 0.05
    toggle_word_casing: float = 0.05
    swap_adjacent_words: float = 0.05
    alphabet: str = "abcdefghijklmnopqrstuvwxyz"
    seed: int = 0
    neighbors: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        for name in _FLOAT_KEYS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if not _TSV_BREAKS.isdisjoint(self.alphabet):
            raise ValueError("alphabet cannot hold a tab or a line break")


# the probabilities, which config files set as floats (annotations are strings here)
_FLOAT_KEYS = tuple(f.name for f in fields(CorruptionConfig) if f.type == "float")


def _corrupt_word_chars(
    word: str, config: CorruptionConfig, neighbors: dict[str, str], rng: random.Random
) -> str:
    chars = list(word)
    out: list[str] = []
    i = 0
    while i < len(chars):
        if i + 1 < len(chars) and rng.random() < config.swap_adjacent_chars:
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        ch = chars[i]
        if rng.random() < config.delete_char:
            i += 1
            continue
        if rng.random() < config.substitute_char:
            ch = rng.choice(neighbors.get(ch) or config.alphabet)
        out.append(ch)
        if rng.random() < config.insert_char:
            out.append(rng.choice(config.alphabet))
        i += 1
    return "".join(out)


def corrupt(gold: str, config: CorruptionConfig, rng: random.Random | None = None) -> SentencePair:
    """Corrupt a gold sentence into a synthetic source. Deterministic given the seed."""
    if not gold.strip():
        raise ValueError("cannot corrupt an empty sentence")
    if rng is None:
        rng = random.Random(config.seed)
    words = gold.split()
    i = 0
    while i < len(words) - 1:
        if rng.random() < config.swap_adjacent_words:
            words[i], words[i + 1] = words[i + 1], words[i]
            i += 2
        else:
            i += 1
    neighbors = dict(config.neighbors)
    out_words = []
    for word in words:
        if rng.random() < config.strip_word_diacritics:
            word = strip_diacritics(word)
        if rng.random() < config.toggle_word_casing and word and word[0].isalpha():
            first = word[0]
            word = (first.lower() if first.isupper() else first.upper()) + word[1:]
        word = _corrupt_word_chars(word, config, neighbors, rng)
        if word:
            out_words.append(word)
    source = " ".join(out_words)
    if not source.strip():
        source = gold
    return SentencePair(source=source, gold=gold)


def corrupt_corpus(golds: list[str], config: CorruptionConfig) -> list[SentencePair]:
    """Corrupt each sentence with a per-sentence derived seed (seed XOR index)."""
    return [
        corrupt(gold, config, rng=random.Random(config.seed ^ idx))
        for idx, gold in enumerate(golds)
    ]


def load_corruption_config(path: str | Path) -> CorruptionConfig:
    """Read a flat key=value config file; unknown keys are an error."""
    return load_text(path, _parse_config, Path(path).parent)


def _parse_config(text: str, here: Path) -> CorruptionConfig:
    config = CorruptionConfig()
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise FormatError(f"line {lineno}: expected key=value")
        try:
            if key in _FLOAT_KEYS:
                config = replace(config, **{key: float(value)})
            elif key == "seed":
                config = replace(config, seed=int(value))
            elif key == "alphabet":
                config = replace(config, alphabet=value)
            elif key == "neighbors_file":
                config = replace(config, neighbors=load_text(here / value, _parse_neighbors))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return config


def _parse_neighbors(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 1 or not fields[1]:
            raise FormatError(f"line {lineno}: expected char<TAB>neighbors")
        pairs.append((fields[0], fields[1]))
    return tuple(pairs)
