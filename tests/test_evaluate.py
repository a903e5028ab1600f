import tempfile
import unicodedata
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gecxform.evaluate as evaluate_module
import gecxform.transform as transform_module
from corpusgen import (
    ALPHABETS,
    cased_noise_config,
    corpusgen_vocab,
    corrupted_corpus,
    suffix_error_pairs,
    uncased_noise_config,
)
from gecxform.corpus import SentencePair, corrupt_corpus, load_corpus, serialize_tsv
from gecxform.editscript import KEEP, UNCORRECTABLE
from gecxform.evaluate import (
    ANALYSIS_HEADER,
    EvalCounts,
    OracleMemo,
    analyze,
    extract_edits,
    f_beta,
    oracle_upper_bound,
    pair_gold_edits,
    rows_to_tsv,
    score,
)
from gecxform.textnorm import CasingMode, fold
from gecxform.tokenizer import TokenizerMode, tokenize
from gecxform.transform import (
    ALL_MODES,
    GranularityMode,
    TransformationDictionary,
    DictEntry,
    apply_labels,
    dumps_dictionary,
    encode,
    induce,
)

U = CasingMode.UNCASED
CHAR_SUB = GranularityMode("char", "subword")
CHUNKS = TokenizerMode.char_chunks(3)


def reserved_only_dictionary(mode=CHAR_SUB, casing=U):
    return TransformationDictionary(
        mode, casing, 1, (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP))
    )


# --- metrics ------------------------------------------------------------------


def test_f_beta_examples():
    assert f_beta(1, 0, 0) == 1.0
    # P = R = 0.5
    assert f_beta(1, 1, 1) == pytest.approx(0.5, abs=1e-9)
    # P = 0.8, R = 0.4  ->  1.25*0.8*0.4 / (0.25*0.8 + 0.4)
    assert f_beta(4, 1, 6) == pytest.approx(2 / 3, abs=1e-9)


def test_f_beta_edge_cases():
    assert f_beta(0, 0, 0) == 1.0  # nothing proposed, nothing required
    assert f_beta(0, 0, 5) == 0.0  # nothing proposed, edits required
    assert f_beta(0, 5, 0) == 0.0  # spurious edits only


def test_eval_counts_consistency():
    counts = EvalCounts.from_counts(3, 1, 2)
    assert counts.precision == pytest.approx(0.75)
    assert counts.recall == pytest.approx(0.6)
    assert counts.f_half == pytest.approx(f_beta(3, 1, 2))


# --- edit extraction ----------------------------------------------------------


def test_extract_edits_examples():
    assert extract_edits(["gatherin", "leafes"], ["Gathering", "leaves"]) == [
        (0, 1, "Gathering"),
        (1, 2, "leaves"),
    ]
    assert extract_edits(["a", "b"], ["a", "b"]) == []
    assert extract_edits(["a", "b"], ["a", "x", "b"]) == [(1, 1, "x")]


def test_extract_edits_merges_same_gap_insertions():
    assert extract_edits(["a", "b"], ["a", "x", "y", "b"]) == [(1, 1, "x y")]


def test_extract_edits_deletion():
    assert extract_edits(["a", "b", "c"], ["a", "c"]) == [(1, 2, "")]


def test_pair_gold_edits_prefers_annotations():
    from gecxform.corpus import GoldEdit

    pair = SentencePair("a b", "a c", (GoldEdit(1, 2, "X", "c", 0),))
    assert pair_gold_edits(pair) == [(1, 2, "c")]
    derived = SentencePair("a b", "a c")
    assert pair_gold_edits(derived) == [(1, 2, "c")]


# --- scoring ------------------------------------------------------------------


def test_score_perfect_hypothesis():
    pairs = [("a b", "a c", [(1, 2, "c")]), ("x", "x", [])]
    counts = score(pairs)
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)
    assert counts.f_half == 1.0


def test_score_unchanged_hypothesis():
    counts = score([("a b", "a b", [(1, 2, "c")])])
    assert counts.tp == 0
    assert counts.f_half == 0.0


def test_score_half_recall():
    counts = score([("a b", "c b", [(0, 1, "c"), (1, 2, "d")])])
    assert counts.precision == 1.0
    assert counts.recall == 0.5
    assert counts.f_half == pytest.approx(1.25 * 0.5 / 0.75, abs=1e-9)


def test_score_order_invariant():
    items = [
        ("a b", "c b", [(0, 1, "c")]),
        ("x y", "x z", [(1, 2, "z"), (0, 1, "q")]),
    ]
    forward = score(items)
    backward = score(list(reversed(items)))
    assert forward == backward


# --- oracle upper bound -------------------------------------------------------


def test_upper_bound_self_induced_is_perfect():
    pairs = corrupt_corpus(
        [f"Kočka číslo {i} leze velmi tiše" for i in range(40)],
        uncased_noise_config(3),
    )
    dictionary = induce(pairs, CHAR_SUB, U, min_count=1, tokenizer=CHUNKS)
    row = oracle_upper_bound(pairs, dictionary, CHUNKS)
    assert row.counts.f_half == 1.0
    assert row.dictionary_size == dictionary.size
    assert row.min_count == 1


def test_upper_bound_reserved_dictionary_scores_zero():
    pairs = [SentencePair("kocka leze", "Kočka leze")]
    row = oracle_upper_bound(pairs, reserved_only_dictionary(), CHUNKS)
    assert row.counts.f_half == 0.0


def test_upper_bound_iterations_preserve_perfect_scores():
    # a min_count-1 dictionary induced from the corpus itself reaches every
    # gold in round 1; extra allowed rounds must not disturb that
    pairs = suffix_error_pairs(60, seed=9)
    dictionary = induce(pairs, CHAR_SUB, U, min_count=1, tokenizer=CHUNKS)
    one = oracle_upper_bound(pairs, dictionary, CHUNKS, iterations=1)
    four = oracle_upper_bound(pairs, dictionary, CHUNKS, iterations=4)
    assert one.counts.f_half == 1.0
    assert four.counts.f_half == 1.0


@st.composite
def language_pairs(draw):
    """One to three pairs in one alphabet; each source word is the gold word,
    its folded form, or an unrelated word."""
    word = st.text(alphabet=draw(st.sampled_from(ALPHABETS)), min_size=1, max_size=7)
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        gold = draw(st.lists(word, min_size=1, max_size=5))
        source = [draw(st.sampled_from([w, fold(w, U)]) | word) for w in gold]
        pairs.append(SentencePair(" ".join(source), " ".join(gold)))
    return pairs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(language_pairs())
def test_upper_bound_self_induced_is_perfect_on_decomposed_input(pairs):
    # uncased only: cased mode cannot downcase yet (" Al" -> " Aal" is unreachable)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nfd.tsv"
        path.write_text(unicodedata.normalize("NFD", serialize_tsv(pairs)), encoding="utf-8")
        loaded = load_corpus(path)
    assert loaded == pairs
    for tokenizer in (TokenizerMode.word(), TokenizerMode.char_chunks(2)):
        for unit in ("subword", "word"):
            mode = GranularityMode("char", unit)
            dictionary = induce(loaded, mode, U, min_count=1, tokenizer=tokenizer)
            assert oracle_upper_bound(loaded, dictionary, tokenizer).counts.f_half == 1.0


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_an_oracle_round_is_encode_then_apply(seed):
    # held-out, so that labels come from the fallback scan and some are 0
    for casing, noise in ((U, uncased_noise_config), (CasingMode.CASED, cased_noise_config)):
        train = corrupted_corpus(6, seed, noise(seed))
        held_out = corrupted_corpus(4, seed + 1, noise(seed + 1))
        for mode, tokenizer in product(
            ALL_MODES, (TokenizerMode.word(), TokenizerMode.char_chunks(2))
        ):
            dictionary = induce(train, mode, casing, min_count=1, tokenizer=tokenizer)
            outputs = evaluate_module._upper_bound_outputs(
                held_out, dictionary, tokenizer, 1, OracleMemo()
            )
            for pair, out in zip(held_out, outputs):
                if pair.source == pair.gold:
                    assert out == pair.source  # a pair at its gold takes no round
                    continue
                try:
                    labeled = encode(pair.source, pair.gold, dictionary, tokenizer)
                except ValueError:
                    continue
                assert out == apply_labels(labeled, dictionary)


# --- analysis sweep -----------------------------------------------------------


def test_analyze_row_grid_and_monotonicity():
    pairs = suffix_error_pairs(50, seed=4)
    rows = analyze(pairs, U, CHUNKS)
    assert len(rows) == 24
    combos = {(r.mode.label, r.min_count, r.iterations) for r in rows}
    assert len(combos) == 24
    by_config = {(r.mode.label, r.min_count, r.iterations): r.counts.f_half for r in rows}
    for mode in ("char-at-subword", "char-at-word", "string-at-subword", "string-at-word"):
        for iters in (1, 4):
            f1 = by_config[(mode, 1, iters)]
            f2 = by_config[(mode, 2, iters)]
            f3 = by_config[(mode, 3, iters)]
            assert f1 + 1e-12 >= f2 >= f3 - 1e-12


def count_calls(monkeypatch, module, name, key):
    """Patch ``module.name`` to count its calls by ``key(*args)``."""
    calls = Counter()
    original = getattr(module, name)

    def counting(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "tokenizer,casing",
    [
        (tokenizer, casing)
        for casing in (U, CasingMode.CASED)
        for tokenizer in (
            TokenizerMode.word(),
            TokenizerMode.char_chunks(2),
            TokenizerMode.vocab_greedy(corpusgen_vocab()),
        )
    ],
    ids=["word", "chars2", "vocab", "word-cased", "chars2-cased", "vocab-cased"],
)
def test_analyze_aligns_each_text_once_and_matches_independent_runs(
    monkeypatch, tokenizer, casing
):
    # suffix rules recur enough to pass min_count 3, so round 1 fixes suffixes
    # beside rarer noise and round 2 tokenizes new subwords
    noise = uncased_noise_config(3) if casing is U else cased_noise_config(3)
    pairs = suffix_error_pairs(4, 3) + corrupted_corpus(8, 3, noise)
    min_counts, iteration_counts = (1, 2, 3), (1, 4)
    reference = []
    for mode in ALL_MODES:
        for min_count in min_counts:
            dictionary = induce(pairs, mode, casing, min_count, tokenizer=tokenizer)
            reference += [
                oracle_upper_bound(pairs, dictionary, tokenizer, iterations)
                for iterations in iteration_counts
            ]

    aligned = count_calls(
        monkeypatch, transform_module, "align", lambda subwords, gold: (tuple(subwords), gold)
    )
    # the build memo sits inside build_unit_transformation, so count the
    # builders it calls on a miss
    char_built = count_calls(
        monkeypatch, transform_module, "build_char_transformation",
        lambda unit, span, _casing: (unit, span, "char"),
    )
    string_built = count_calls(
        monkeypatch, transform_module, "build_string_transformation",
        lambda unit, span: (unit, span, "string"),
    )
    requested = count_calls(
        monkeypatch, evaluate_module, "unit_pairs", lambda _text, _gold, mode, *_: mode.unit
    )
    rows = analyze(pairs, casing, tokenizer, min_counts, iteration_counts)

    assert rows == reference
    assert max(aligned.values()) == 1
    assert max((char_built + string_built).values()) == 1
    first_pass = {(tuple(tokenize(p.source, tokenizer, casing)), p.gold) for p in pairs}
    assert set(aligned) > first_pass, "no later round has new subwords"
    # the word tokenizer copies every *-at-word row from its *-at-subword twin
    if tokenizer.kind == "word":
        assert requested["word"] == 0 < requested["subword"]
    else:
        assert requested["word"] > 0


def test_analyze_labels_round_1_once_per_dictionary(monkeypatch):
    # iterations 1 and 4 share each dictionary's labels, so round 1 adds no build
    pairs = suffix_error_pairs(4, 3) + corrupted_corpus(8, 3, uncased_noise_config(3))
    tokenizer = TokenizerMode.char_chunks(2)
    requests = {}
    for iteration_counts in ((4,), (1, 4)):
        built = count_calls(
            monkeypatch, transform_module, "build_unit_transformation", lambda *args: None
        )
        analyze(pairs, U, tokenizer, iteration_counts=iteration_counts)
        requests[iteration_counts] = built[None]
        monkeypatch.undo()
    assert requests[1, 4] == requests[4,] > 0


@pytest.mark.parametrize("tokenizer", [TokenizerMode.word(), TokenizerMode.char_chunks(2)],
                         ids=["word", "chars2"])
def test_analyze_aligns_once_per_pair_when_later_rounds_only_fold(monkeypatch, tokenizer):
    # every correction but capitalization occurs once, so at min_count 1 round 1
    # reaches the gold, and at 2 and 3 a later round's text differs from the
    # source only in case and diacritics: it tokenizes to round 1's subwords
    pairs = [
        SentencePair("Praha je velka", "Praha je velká"),
        SentencePair("Kocka leze po strese", "Kočka leze po střeše"),
        SentencePair("Jana ma psa", "Jana má psa"),
    ]
    aligned = count_calls(monkeypatch, transform_module, "align", lambda *args: None)
    requested = count_calls(
        monkeypatch, evaluate_module, "unit_pairs", lambda text, *_: text
    )
    analyze(pairs, U, tokenizer, iteration_counts=(1, 4))
    assert {fold(p.source, U) for p in pairs} <= set(requested)
    assert aligned[None] == len(pairs)


def test_induce_aligns_a_repeated_pair_once(monkeypatch):
    pairs = corrupted_corpus(10, 4, uncased_noise_config(4))
    single = induce(pairs, CHAR_SUB, U, tokenizer=CHUNKS)
    aligned = count_calls(
        monkeypatch, transform_module, "align", lambda subwords, gold: (tuple(subwords), gold)
    )
    doubled = induce(pairs + pairs, CHAR_SUB, U, tokenizer=CHUNKS)
    assert set(aligned) == {(tuple(tokenize(p.source, CHUNKS, U)), p.gold) for p in pairs}
    assert max(aligned.values()) == 1
    assert single.size > 2
    assert [(e.ident, 2 * e.count, e.transformation) for e in single.entries] == [
        (e.ident, e.count, e.transformation) for e in doubled.entries
    ]


def test_unalignable_pairs_are_skipped(monkeypatch, caplog):
    good = corrupted_corpus(12, 5, uncased_noise_config(5))
    bad = [SentencePair("", "Nic tu není"), SentencePair("kocka leze", "   ")]
    pairs = good[:4] + bad[:1] + good[4:8] + bad[1:] + good[8:]
    expected = dumps_dictionary(induce(good, CHAR_SUB, U, min_count=1, tokenizer=CHUNKS))
    caplog.clear()
    dictionary = induce(pairs, CHAR_SUB, U, min_count=1, tokenizer=CHUNKS)
    assert dumps_dictionary(dictionary) == expected
    skipped = [r for r in caplog.records if "skipping pair" in r.getMessage()]
    assert len(skipped) == len(bad)

    memo = OracleMemo()
    counts = oracle_upper_bound(pairs, dictionary, CHUNKS, iterations=2, memo=memo).counts
    good_counts = oracle_upper_bound(good, dictionary, CHUNKS, iterations=2).counts
    # a bad pair stays its source: no proposed edit, every gold edit missed
    as_source = score((p.source, p.source, pair_gold_edits(p)) for p in bad)
    assert as_source.fp == as_source.tp == 0 and as_source.fn > 0
    assert (counts.tp, counts.fp, counts.fn) == (
        good_counts.tp, good_counts.fp, good_counts.fn + as_source.fn
    )
    # "" does not tokenize, so only the blank gold reaches the alignment memo
    assert [(k, v) for k, v in memo.alignments.items() if v is None] == [
        ((tuple(tokenize("kocka leze", CHUNKS, U)), "   "), None)
    ]

    # analyze remembers the failed alignment from its first pass
    aligned = count_calls(
        monkeypatch, transform_module, "align", lambda subwords, gold: (tuple(subwords), gold)
    )
    analyze(pairs, U, CHUNKS)
    assert aligned[tuple(tokenize("kocka leze", CHUNKS, U)), "   "] == 1
    assert max(aligned.values()) == 1


def test_rows_to_tsv_format():
    pairs = suffix_error_pairs(10, seed=6)
    rows = analyze(pairs, U, CHUNKS, min_counts=(1,), iteration_counts=(1,))
    text = rows_to_tsv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ANALYSIS_HEADER
    assert len(lines) == 5
    first = lines[1].split("\t")
    assert first[0] == "char-at-subword"
    assert len(first) == 8
    float(first[5]), float(first[6]), float(first[7])

