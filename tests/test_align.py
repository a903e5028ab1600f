import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecxform.align import (
    BRUTEFORCE_MAX_GOLD,
    BRUTEFORCE_MAX_SUBWORDS,
    Alignment,
    AlignmentError,
    align,
    align_bruteforce,
    edit_distance,
    span_cost,
    span_length_bound,
)
from gecxform.textnorm import CasingMode
from gecxform.tokenizer import TokenizerMode, tokenize

FIG_VOCAB = TokenizerMode.vocab_greedy({" gathe", "rin", " lea", "fes"})


def lev_cells(a, b):
    # cell-by-cell two-row DP: the oracle for the bit-parallel edit_distance
    prev = list(range(len(a) + 1))
    for j, bc in enumerate(b, 1):
        cur = [j] + [0] * len(a)
        for i, ac in enumerate(a, 1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (ac != bc))
        prev = cur
    return prev[-1]


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
# few letters, so that repeated characters and exact matches are common
DIST_TEXT = st.text(alphabet="aab c", max_size=12)


@PROPERTY
@given(DIST_TEXT, DIST_TEXT)
def test_edit_distance_against_oracle(a, b):
    assert edit_distance(a, b) == lev_cells(a, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.text(alphabet="ab", min_size=60, max_size=80), st.text(alphabet="ab", max_size=80))
def test_edit_distance_beyond_one_machine_word(a, b):
    assert edit_distance(a, b) == lev_cells(a, b)


def test_span_cost_examples():
    assert span_cost(" gathe", " gathe") == 1.0
    assert span_cost("rin", " rin") == 0.75
    assert span_cost("fes", "ves") == pytest.approx(1 / 3, abs=1e-9)


def test_align_worked_example():
    seq = tokenize("gatherin leafes", FIG_VOCAB, CasingMode.UNCASED)
    result = align(seq, "Gathering leaves")
    assert result.span_texts == [" Gathe", "ring", " lea", "ves"]
    # 1.0 (exact) + 0.375 (rin/ring) + 1.0 (exact) + 1/3 (fes/ves)
    assert result.total_weight == pytest.approx(1.0 + 0.375 + 1.0 + 1 / 3, abs=1e-9)


def test_align_identity_pair():
    result = align([" abc"], "abc")
    assert result.span_texts == [" abc"]
    assert result.total_weight == 1.0


def test_align_tie_break_prefers_shorter_early_span():
    result = align([" a", " b"], "a x b")
    assert result.span_texts == [" a", " x b"]


def test_align_no_overlap_full_coverage():
    rng = random.Random(22)
    seq = tokenize("Kočka mňouká velmi hlasitě", TokenizerMode.char_chunks(3), CasingMode.UNCASED)
    result = align(seq, "Kočka mňouká velmi hlasitě")
    end = 0
    for a, b in result.spans:
        assert a == end
        end = b
    assert end == len(result.gold)


def test_align_insensitive_to_case_and_diacritics():
    seq = tokenize("kocka leze", TokenizerMode.char_chunks(2), CasingMode.UNCASED)
    base = align(seq, "kocka leze")
    noisy = align(seq, "KOČKA LEZE")
    assert noisy.total_weight == pytest.approx(base.total_weight, abs=1e-9)


def test_align_weight_bounded_by_subword_count():
    seq = tokenize("ab cd ef", TokenizerMode.char_chunks(1), CasingMode.CASED)
    result = align(seq, "totally different text")
    assert result.total_weight <= len(seq)


def test_align_whitespace_only_gold_fails():
    with pytest.raises(AlignmentError):
        align([" a"], "   ")


def test_align_bruteforce_rejects_large_instances():
    with pytest.raises(ValueError):
        align_bruteforce([" a"] * 6, "abc")
    with pytest.raises(ValueError):
        align_bruteforce([" a"], "x" * 17)


def test_align_bruteforce_worst_case_similarity():
    result = align_bruteforce([" zz"], "qq")
    # the only complete alignment consumes all of " qq" at pure-similarity cost
    assert result.total_weight == 0.0


SUBWORD_BODY = st.text(alphabet="ab.,x", min_size=1, max_size=3)
SUBWORD = st.builds(lambda lead, body: lead + body, st.sampled_from(["", " ", "  "]), SUBWORD_BODY)
# whitespace runs, punctuation (folded to one placeholder) and case/diacritics
GOLD = st.text(alphabet="abAá .,!x", min_size=1, max_size=BRUTEFORCE_MAX_GOLD)


def assert_same_alignment(subwords, gold):
    try:
        slow = align_bruteforce(subwords, gold)
    except AlignmentError:
        with pytest.raises(AlignmentError):
            align(subwords, gold)
        return
    fast = align(subwords, gold)
    assert fast.spans == slow.spans
    assert fast.total_weight == pytest.approx(slow.total_weight, abs=1e-9)


@PROPERTY
@given(st.lists(SUBWORD, min_size=1, max_size=BRUTEFORCE_MAX_SUBWORDS), GOLD)
def test_align_matches_bruteforce_on_random_instances(subwords, gold):
    assert_same_alignment(subwords, gold)


@PROPERTY
@given(
    st.sampled_from([" a", "b", ".", " x", " "]),
    st.text(alphabet="ab.x", min_size=1, max_size=1),
    st.text(alphabet="ab .x", min_size=BRUTEFORCE_MAX_GOLD - 2, max_size=BRUTEFORCE_MAX_GOLD - 2),
    st.text(alphabet="ab.x", min_size=1, max_size=1),
)
def test_align_matches_bruteforce_after_unbounded_retry(subword, head, middle, last):
    # one subword must cover " " + gold up to its last character, which is
    # longer than its span bound, so only the unbounded retry finds a cover
    gold = head + middle + last
    assert 1 + len(gold) > span_length_bound(len(subword))
    assert_same_alignment([subword], gold)


def test_span_length_bound_respected_when_feasible():
    # two single-char subwords, 20 gold characters: each span must stay within
    # 8 + 3*2 = 14, and the bound still admits a full cover
    subwords = [" a", " b"]
    gold = "a" * 9 + " " + "b" * 9
    result = align(subwords, gold)
    for (a, b), sub in zip(result.spans, subwords):
        assert b - a <= span_length_bound(len(sub))


def test_bound_lifted_when_no_bounded_cover_exists():
    gold = "x" * 30
    result = align([" a"], gold)
    assert result.span_texts == [" " + gold]


def test_alignment_span_texts_property():
    result = Alignment(" ab cd", ((0, 3), (3, 6)), 2.0)
    assert result.span_texts == [" ab", " cd"]
