"""Edit-level precision/recall/F0.5 and oracle upper bounds.

Hypothesis edits are extracted with a deterministic merged token edit script
rather than a lattice search. This is reproducible, and exact when the gold
edits come from the same extractor (TSV corpora), but not M2-compatible: an
annotated span that the minimal script cuts differently never matches, so a
hypothesis equal to the gold can score 0 (see :func:`score`).

Oracle upper bounds correct each pair over several rounds. Each round encodes
the text it is given against the gold as :func:`gecxform.transform.encode`
does (tokenize, align, label each unit) and decodes the labels as ``apply``
does, through :func:`gecxform.transform.apply_labels`. An :class:`OracleMemo`
holds the work that does not depend on the dictionary: alignments keyed by
the DP's input ``(tuple(subwords), gold)`` and the cost rows they read,
transformations keyed by ``(unit, span, grain, casing)`` and extracted edits
keyed by ``(source, text)``. One memo lives for one :func:`analyze` call, so
its sweep over many dictionaries aligns each subword sequence, builds each
rule and extracts each edit set once. Labels belong to the dictionary,
which memoizes them. Iteration counts share one correction run:
:func:`oracle_upper_bound` takes every count at once and runs each pair to
the deepest one, keeping the text of every round, so a dictionary
tokenizes, labels and decodes each round once however many counts the sweep
asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .align import CostTables
from .corpus import SentencePair
from .editscript import INSERT, REPLACE, minimal_edit_script
from .textnorm import CasingMode
from .tokenizer import TokenizerMode
# not called here: perfbench/tracing.py wraps these names
from .editscript import apply_transformation
from .tokenizer import tokenize
from .transform import (
    ALL_MODES,
    AlignmentMemo,
    BuildMemo,
    GranularityMode,
    LabeledSentence,
    TransformationDictionary,
    apply_labels,
    corpus_unit_data,
    counts_from_unit_data,
    dictionary_from_counts,
    unit_pairs,
)

ANALYSIS_HEADER = "mode\tcasing\tmin_count\titerations\tdict_size\tprecision\trecall\tf0.5"
DEFAULT_MIN_COUNTS = (1, 2, 3)  # analyze's default sweep
DEFAULT_ITERATIONS = (1, 4)

EditTuple = tuple[int, int, str]

# Edit memo: ``(source, text)`` maps to extract_edits over their tokens.
EditMemo = dict[tuple[str, str], list[EditTuple]]


def _precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """Zero proposed edits count as precision 1, zero gold edits as recall 1."""
    return (tp / (tp + fp) if tp + fp else 1.0), (tp / (tp + fn) if tp + fn else 1.0)


def f_beta(tp: int, fp: int, fn: int) -> float:
    """F0.5 from micro counts, as the paper scores; zero proposed edits count as precision 1."""
    precision, recall = _precision_recall(tp, fp, fn)
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = 0.5 * 0.5  # beta 0.5 weighs precision twice as much as recall
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


@dataclass(frozen=True)
class EvalCounts:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_half: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalCounts":
        return cls(tp, fp, fn, *_precision_recall(tp, fp, fn), f_beta(tp, fp, fn))


def extract_edits(source_tokens: list[str], hypothesis_tokens: list[str]) -> list[EditTuple]:
    """Token-level edits as (start, end, correction) spans over the source tokens.

    Derived from the minimal token edit script; consecutive insertions at one
    gap merge into a single multi-token correction.
    """
    spans: list[EditTuple] = []
    for pos, kind, payload in minimal_edit_script(source_tokens, hypothesis_tokens):
        if kind == INSERT:
            gap = pos - 1
            if spans and spans[-1][0] == spans[-1][1] == gap:
                start, end, correction = spans.pop()
                spans.append((start, end, f"{correction} {payload}"))
            else:
                spans.append((gap, gap, payload))
        elif kind == REPLACE:
            spans.append((pos - 1, pos, payload))
        else:
            spans.append((pos - 1, pos, ""))
    return spans


def _text_edits(source: str, text: str, edits: EditMemo | None) -> list[EditTuple]:
    """extract_edits over the tokens of ``source`` and ``text``, memoized in ``edits``."""
    if edits is None:
        return extract_edits(source.split(), text.split())
    key = (source, text)
    if key not in edits:
        edits[key] = extract_edits(source.split(), text.split())
    return edits[key]


def _normalize_correction(text: str) -> str:
    return " ".join(text.split())


def pair_gold_edits(
    pair: SentencePair, annotator: int = 0, edits: EditMemo | None = None
) -> list[EditTuple]:
    """Gold edits of a pair: annotated spans when present, else derived from the texts."""
    if pair.gold_edits:
        return [
            (e.start_token, e.end_token, _normalize_correction(e.correction))
            for e in pair.gold_edits
            if e.annotator == annotator
        ]
    return _text_edits(pair.source, pair.gold, edits)


def score(
    items: Iterable[tuple[str, str, list[EditTuple]]], edits: EditMemo | None = None
) -> EvalCounts:
    """Micro-averaged counts over (source, hypothesis, gold_edits) triples.

    Hypothesis edits come from the minimal token edit script and must equal a
    gold edit exactly. Annotated M2 spans that the script cuts differently
    never match: ``He go to school yesterday .`` with the annotation
    ``1 3 -> went to`` scores tp=0, fp=1, fn=1 for the gold sentence itself.
    ``edits`` memoizes the hypothesis edits by ``(source, hypothesis)``.
    """
    tp = fp = fn = 0
    for source, hypothesis, gold_edits in items:
        hyp = set(_text_edits(source, hypothesis, edits))
        gold = {(a, b, _normalize_correction(c)) for a, b, c in gold_edits}
        tp += len(hyp & gold)
        fp += len(hyp - gold)
        fn += len(gold - hyp)
    return EvalCounts.from_counts(tp, fp, fn)


@dataclass(frozen=True)
class OracleAnalysisRow:
    """One configuration of the upper-bound sweep.

    The sweep also varies the iteration count, so rows carry it alongside the
    granularity, casing and threshold.
    """

    mode: GranularityMode
    casing: CasingMode
    min_count: int
    iterations: int
    dictionary_size: int
    counts: EvalCounts


@dataclass
class OracleMemo:
    """The dictionary-independent work of oracle runs, shared between them.

    ``alignments`` (see :func:`gecxform.transform.unit_pairs`) and the
    ``cost_tables`` they read (see :class:`gecxform.align.CostTables`),
    ``builds`` (see :func:`gecxform.transform.build_unit_transformation`) and
    ``edits`` (see :func:`score`) grow as the runs need them. Labels depend
    on the dictionary and are memoized by it, not here.
    """

    alignments: AlignmentMemo = field(default_factory=dict)
    cost_tables: CostTables = field(default_factory=CostTables, repr=False)
    builds: BuildMemo = field(default_factory=dict)
    edits: EditMemo = field(default_factory=dict)


def _upper_bound_outputs(
    pairs: list[SentencePair],
    dictionary: TransformationDictionary,
    tokenizer: TokenizerMode,
    iterations: tuple[int, ...],
    memo: OracleMemo,
) -> list[list[str]]:
    """The oracle outputs after each count of ``iterations`` rounds, one list per count.

    Each pair runs once, to the deepest count. A pair that stops early (at its
    gold, when it cannot be aligned, or after a round that changes nothing)
    would stop there under every larger count too, so the output after ``k``
    rounds is the text of round ``min(k, rounds run)``.
    """
    deepest = max(iterations, default=0)
    outputs: list[list[str]] = [[] for _ in iterations]
    for pair in pairs:
        texts = [pair.source]  # texts[r]: the text after r rounds
        while len(texts) <= deepest:
            current = texts[-1]
            if current == pair.gold:
                break  # gold reached: a further round would keep every unit
            try:
                units, spans = unit_pairs(
                    current, pair.gold, dictionary.mode, dictionary.casing, tokenizer,
                    memo.alignments, memo.cost_tables,
                )
            except ValueError:
                break  # pair cannot be aligned; leave it as it stands
            labels = tuple(dictionary.label(u, s, memo.builds) for u, s in zip(units, spans))
            out = apply_labels(LabeledSentence(tuple(units), labels), dictionary)
            if out == current:
                break
            texts.append(out)
        for count, outs in zip(iterations, outputs):
            outs.append(texts[min(count, len(texts) - 1)])
    return outputs


def oracle_upper_bound(
    pairs: list[SentencePair],
    dictionary: TransformationDictionary,
    tokenizer: TokenizerMode = TokenizerMode.word(),
    iterations: tuple[int, ...] = (1,),
    annotator: int = 0,
    memo: OracleMemo | None = None,
) -> list[OracleAnalysisRow]:
    """Score the corpus as if every encoded label were predicted perfectly.

    Returns one row per count of ``iterations``, in the order given,
    duplicates included. One correction run per pair serves every count: it
    goes to the deepest count and stops early at the gold, when the pair
    cannot be aligned, or after a round that changes nothing. Each round
    re-tokenizes the text the previous round produced, aligns it to the gold,
    labels its units and decodes them with
    :func:`gecxform.transform.apply_labels`, as ``encode`` and ``apply`` do;
    a round whose subwords were aligned before reuses their spans. ``memo``
    holds that work keyed by ``(tuple(subwords), gold)``, the built
    transformations keyed by ``(unit, span, grain, casing)`` and the
    extracted edits keyed by ``(source, text)``. Passing one memo to several
    calls shares the work between dictionaries; without it, a fresh memo
    serves this call alone.
    """
    if memo is None:
        memo = OracleMemo()
    gold_edits = [pair_gold_edits(pair, annotator, memo.edits) for pair in pairs]
    outputs = _upper_bound_outputs(pairs, dictionary, tokenizer, iterations, memo)
    return [
        OracleAnalysisRow(
            mode=dictionary.mode,
            casing=dictionary.casing,
            min_count=dictionary.min_count,
            iterations=count,
            dictionary_size=dictionary.size,
            counts=score(
                ((pair.source, out, gold) for pair, out, gold in zip(pairs, outs, gold_edits)),
                memo.edits,
            ),
        )
        for count, outs in zip(iterations, outputs)
    ]


def analyze(
    pairs: list[SentencePair],
    casing: CasingMode,
    tokenizer: TokenizerMode = TokenizerMode.word(),
    min_counts: tuple[int, ...] = DEFAULT_MIN_COUNTS,
    iteration_counts: tuple[int, ...] = DEFAULT_ITERATIONS,
    annotator: int = 0,
) -> list[OracleAnalysisRow]:
    """Upper-bound sweep over every granularity, threshold and iteration setting.

    Every pair is tokenized and aligned once; the counting pass and all
    configurations reuse that work through one :class:`OracleMemo`, which
    lives for this call. Each ``(subwords, gold)`` is thus aligned, each
    ``(unit, span, grain)`` built and each ``(source, text)`` edit set
    extracted at most once per call, a pair that cannot be aligned included.
    Each dictionary takes one :func:`oracle_upper_bound` call, whose single
    correction run per pair yields the rows of all ``iteration_counts``.
    Under the word tokenizer every word is exactly one subword in every
    round, so only the ``*-at-subword`` configurations are evaluated and each
    ``*-at-word`` row is a copy with its mode replaced.
    """
    word_is_subword = tokenizer.kind == "word"
    modes = [m for m in ALL_MODES if not (word_is_subword and m.unit == "word")]
    memo = OracleMemo()
    unit_data = corpus_unit_data(pairs, casing, tokenizer, memo.alignments, memo.cost_tables)
    counters = counts_from_unit_data(unit_data, modes, casing, memo.builds)
    rows = []
    for mode in ALL_MODES:
        if mode not in modes:
            twin = GranularityMode(mode.grain, "subword")
            rows += [replace(row, mode=mode) for row in rows if row.mode == twin]
            continue
        for min_count in min_counts:
            dictionary = dictionary_from_counts(counters[mode], mode, casing, min_count)
            rows += oracle_upper_bound(
                pairs, dictionary, tokenizer, iteration_counts, annotator, memo
            )
    return rows


def rows_to_tsv(rows: list[OracleAnalysisRow]) -> str:
    lines = [ANALYSIS_HEADER]
    for row in rows:
        lines.append(
            f"{row.mode.label}\t{row.casing.value}\t{row.min_count}\t{row.iterations}"
            f"\t{row.dictionary_size}\t{row.counts.precision:.4f}\t{row.counts.recall:.4f}"
            f"\t{row.counts.f_half:.4f}"
        )
    return "\n".join(lines) + "\n"
