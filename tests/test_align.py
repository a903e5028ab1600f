import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gecxform.align as align_module
from corpusgen import cased_noise_config, corpusgen_vocab, gold_corpus, uncased_noise_config
from gecxform.corpus import corrupt_corpus
from gecxform.align import (
    _NEG,
    GROUP_BYTES,
    MAX_PAIR_CELLS,
    STORED_LENGTHS,
    Alignment,
    AlignmentError,
    CostTables,
    _peq,
    _prepare,
    _stored_steps,
    align,
    edit_distances,
    span_length_bound,
)
from gecxform.textnorm import CasingMode, alignment_normalize
from gecxform.tokenizer import TokenizerMode, tokenize

# Exhaustive search limits for the brute-force alignment.
BRUTEFORCE_MAX_SUBWORDS = 5
BRUTEFORCE_MAX_GOLD = 16


def _stripped_cost(dist, len_a, len_b):
    """Weight of a pair that is not an exact match, from its trimmed strings.

    ``dist`` is the edit distance of the two trimmed strings and ``len_a``,
    ``len_b`` their lengths: 0.75 when they are equal, else half their
    Levenshtein similarity.
    """
    if dist == 0:
        return 0.75
    return 0.5 * (1.0 - dist / (len_a if len_a > len_b else len_b))


def span_cost(subword, span):
    """Weight of pairing one normalized subword with one candidate gold span.

    Exact match scores 1, whitespace-trimmed equality 0.75, anything else half
    the Levenshtein similarity. The similarity is taken over the trimmed
    strings: surrounding whitespace carries no evidence, and counting it would
    let a shifted word boundary outweigh an in-word match.
    """
    if subword == span:
        return 1.0
    sub = subword.strip()
    spn = span.strip()
    return _stripped_cost(lev_cells(sub, spn), len(sub), len(spn))


def align_bruteforce(subwords, gold):
    """Reference alignment by exhaustive enumeration of contiguous span partitions.

    Raises ValueError beyond ``BRUTEFORCE_MAX_SUBWORDS`` subwords or
    ``BRUTEFORCE_MAX_GOLD`` gold characters.
    """
    if len(subwords) > BRUTEFORCE_MAX_SUBWORDS or len(gold) > BRUTEFORCE_MAX_GOLD:
        raise ValueError("instance too large for exhaustive alignment")
    lead_gold, g, cuts, normed = _prepare(subwords, gold)
    m = len(g)
    n = len(normed)
    tail_ws = [False] * (m + 1)
    tail_ws[m] = True
    for j in range(m - 1, -1, -1):
        tail_ws[j] = tail_ws[j + 1] and g[j] == " "

    def best(i, j, bounded, memo):
        if i == n:
            return (0.0, ()) if tail_ws[j] else None
        key = (i, j)
        if key in memo:
            return memo[key]
        s = normed[i]
        result = None
        tail = best(i + 1, j, bounded, memo)
        if tail is not None:
            result = (tail[0], ((j, j),) + tail[1])
        limit = min(m - j, span_length_bound(len(s)) if bounded else m)
        for l in range(1, limit + 1):
            span = g[j : j + l]
            if span.isspace():
                continue
            rest = best(i + 1, j + l, bounded, memo)
            if rest is None:
                continue
            cand = span_cost(s, span) + rest[0]
            if result is None or cand > result[0]:
                result = (cand, ((j, j + l),) + rest[1])
        memo[key] = result
        return result

    solved = best(0, 0, True, {})
    if solved is None:
        solved = best(0, 0, False, {})
    if solved is None:
        raise AlignmentError("no complete alignment exists")
    return _alignment(cuts, lead_gold, solved)


def _alignment(cuts, lead_gold, solved):
    weight, norm_spans = solved
    return Alignment(lead_gold, tuple((cuts[a], cuts[b]) for a, b in norm_spans), weight)


def reference_solve_dp(normed, g, bounded):
    """The one-start-at-a-time kernel: a span loop per start offset.

    For each start offset the span grows one character at a time, and the
    edit distance of the stripped subword to the stripped span advances by
    one bit-parallel column step. The loop breaks once
    ``0.5 * ls / glen + sufmax[e]`` is below the best candidate by more than
    1e-9. Spans are read back from a table of choices.
    """
    n = len(normed)
    m = len(g)
    nonspace = list(range(m + 1))
    for j in range(m - 1, -1, -1):
        if g[j] == " ":
            nonspace[j] = nonspace[j + 1]

    w_next = [0.0 if nonspace[j] == m else _NEG for j in range(m + 1)]
    choices = []
    neg = _NEG

    for i in range(n - 1, -1, -1):
        s = normed[i]
        stripped = s.strip()
        ls = len(stripped)
        ns = len(s)
        half_ls = 0.5 * ls
        limit_default = span_length_bound(ns) if bounded else m
        sufmax = w_next[:]
        for e in range(m - 1, -1, -1):
            if sufmax[e + 1] > sufmax[e]:
                sufmax[e] = sufmax[e + 1]
        peq = _peq(stripped)
        eqs = [peq.get(ch, 0) for ch in g]
        mask = (1 << ls) - 1
        # With an empty pattern each step must add 1, which bit 0 of hp does.
        high = 1 << (ls - 1) if ls else 1
        w_cur = [neg] * (m + 1)
        ci = [0] * (m + 1)
        for j in range(m + 1):
            best = w_next[j]
            choice = 0
            stop = j + min(m - j, limit_default)
            first = nonspace[j]  # whitespace-only spans are never candidates
            exact_end = j + ns if g.startswith(s, j) else -1
            vp, vn, dist = mask, 0, ls
            for e in range(first + 1, stop + 1):
                eq = eqs[e - 1]
                xv = eq | vn
                xh = (((eq & vp) + vp) ^ vp) | eq
                hp = vn | ~(xh | vp)
                hn = vp & xh
                if hp & high:
                    dist += 1
                elif hn & high:
                    dist -= 1
                hp = (hp << 1) | 1
                vp = ((hn << 1) | ~(xv | hp)) & mask
                vn = hp & xv
                # trailing whitespace joins the stripped span only once
                # content follows it, so the cost changes at content only
                if g[e - 1] != " ":
                    glen = e - first
                    if glen > ls and half_ls / glen + sufmax[e] < best - 1e-9:
                        break
                    c = _stripped_cost(dist, ls, glen)
                tail = w_next[e]
                if tail == neg:
                    continue
                cand = (1.0 if e == exact_end else c) + tail
                if cand > best:
                    best = cand
                    choice = e - j
            w_cur[j] = best
            ci[j] = choice
        w_next = w_cur
        choices.append(ci)

    if w_next[0] == _NEG:
        return None
    choices.reverse()
    spans = []
    j = 0
    for i in range(n):
        l = choices[i][j]
        spans.append((j, j + l))
        j += l
    return w_next[0], spans


def align_reference(subwords, gold):
    """``align`` over the reference kernel, with the same unbounded retry."""
    lead_gold, g, cuts, normed = _prepare(subwords, gold)
    solved = reference_solve_dp(normed, g, bounded=True)
    if solved is None:
        solved = reference_solve_dp(normed, g, bounded=False)
    if solved is None:
        raise AlignmentError("no complete alignment exists")
    return _alignment(cuts, lead_gold, solved)


FIG_VOCAB = TokenizerMode.vocab_greedy({" gathe", "rin", " lea", "fes"})


def lev_cells(a, b):
    # cell-by-cell two-row DP: the oracle for the bit-parallel edit_distances
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


def assert_prefix_distances(a, b):
    assert list(edit_distances(a, b)) == [lev_cells(a, b[:k]) for k in range(1, len(b) + 1)]


@PROPERTY
@given(DIST_TEXT, DIST_TEXT)
@example("", "ab c")
def test_edit_distance_against_oracle(a, b):
    assert_prefix_distances(a, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.text(alphabet="ab", min_size=65, max_size=90), st.text(alphabet="ab", max_size=90))
def test_edit_distance_beyond_one_machine_word(a, b):
    assert_prefix_distances(a, b)


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


# Latin, Cyrillic and Greek letters in both cases; "Σ" lowercases to "ς" at a
# word's end under str.lower, so a whole-string fold would split from the
# alignment's character fold there
IDENTICAL_WORD = st.sampled_from([
    "abcčdeéěiíorřsštuůzžABCČDEÉĚIÍORŘSŠTUŮZŽß",
    "абвгдеёжзийклмнопрАБВГДЕЁЖЗИЙКЛМНОП",
    "αβγδεζηθικλμνξοπρσςτυφάέίΐΑΒΓΔΕΖΗΘΙΚΛΜΝΞΟΠΡΣΤΥΦΆΈΊ",
]).flatmap(lambda letters: st.text(alphabet=letters, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(IDENTICAL_WORD, min_size=1, max_size=6),
    st.sampled_from(list(CasingMode)),
    st.sampled_from([TokenizerMode.word(), TokenizerMode.char_chunks(2)]),
)
@example(["ΟΔΟΣ"], CasingMode.UNCASED, TokenizerMode.word())
def test_an_identical_pair_aligns_every_subword_exactly(words, casing, tokenizer):
    sentence = " ".join(words)
    subwords = tokenize(sentence, tokenizer, casing)
    assert align(subwords, sentence).total_weight == len(subwords)


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


# --- the lane-parallel kernel against the reference kernel ---------------------

LETTERS = "abcdeiklmnorstuáčéěřůžABČŘ"
# Cyrillic and Greek, with letters that fold (ё, й, ά, ΐ) and capitals
CYRILLIC = "абвгдеёжзийклмнопрстуфхцчшщыьэюяАБЁЙЯ"
GREEK = "αβγδεζηθικλμνξοπρστυφχψωάέήίόύώΐΑΓΆΩ"


def assert_same_as_reference(subwords, gold):
    try:
        slow = align_reference(subwords, gold)
    except AlignmentError:
        with pytest.raises(AlignmentError):
            align(subwords, gold)
        return
    fast = align(subwords, gold)
    assert fast.spans == slow.spans
    assert fast.total_weight == slow.total_weight


def _pieces(draw, word):
    """``" " + word`` cut into one to four pieces."""
    text = " " + word
    cuts = sorted(draw(st.sets(st.integers(1, len(text) - 1), max_size=3)))
    return [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]


@st.composite
def large_instances(draw, letters=LETTERS):
    """Up to 40 subwords against up to 300 gold characters, words from ``letters``.

    Gold words run to 20 letters (lanes of 16 and 32 bits), with diacritics,
    capitals, punctuation, runs of two or three spaces and runs longer than
    some span bounds. The subwords are the gold words kept, edited, dropped
    or joined by an extra word, cut into pieces, with an occasional subword
    that folds to "" or to " ".
    """
    words = draw(
        st.lists(
            st.one_of(
                st.text(letters, min_size=1, max_size=7),
                st.text(letters, min_size=8, max_size=20),
                st.sampled_from(".,!?"),
            ),
            min_size=8,
            max_size=40,
        )
    )
    seps = draw(
        st.lists(st.sampled_from([" "] * 6 + ["  ", "  ", "   ", " " * 12]), min_size=len(words))
    )
    gold = "".join(sep + w for sep, w in zip(seps, words))[1:301]
    subwords = []
    for word in words:
        op = draw(st.sampled_from(["keep", "keep", "edit", "drop", "extra"]))
        if op == "drop":
            continue
        if op == "edit":
            k = draw(st.integers(0, len(word) - 1))
            word = word[:k] + draw(st.sampled_from(letters)) + word[k + 1 :]
        if op == "extra":
            subwords.append(" " + draw(st.text(letters, min_size=1, max_size=5)))
        subwords += _pieces(draw, word)
        if draw(st.integers(0, 9)) == 0:
            subwords.append(draw(st.sampled_from(["\u0301", " \u0301"])))
    return subwords[:40] or [" a"], gold


@settings(max_examples=60, deadline=None, derandomize=True)
@given(large_instances())
def test_align_matches_reference_kernel_on_large_instances(instance):
    assert_same_as_reference(*instance)


@st.composite
def tight_instances(draw):
    """Two to five subwords whose span bounds barely cover the gold text.

    Every span then runs up to its cap, so starts at spaces, caps inside runs
    of spaces and the folds cut at a cap decide the alignment.
    """
    pieces = st.sampled_from([" a", "b", " ab", ".", " xy", "  a", " ba"])
    subwords = draw(st.lists(pieces, min_size=2, max_size=5))
    reach = sum(span_length_bound(len(alignment_normalize(s))) for s in subwords)
    gold = draw(st.text("ab xá.", min_size=reach - 6, max_size=reach - 1))
    return subwords, gold + draw(st.sampled_from("abx."))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tight_instances())
def test_align_matches_reference_kernel_at_the_span_bounds(instance):
    assert_same_as_reference(*instance)


@st.composite
def retry_instances(draw):
    """One to three short subwords against a gold text longer than their span bounds."""
    subwords = draw(
        st.lists(
            st.sampled_from([" a", "b", " ab", ".", " xy", "\u0301", " \u0301", "  a"]),
            min_size=1,
            max_size=3,
        )
    )
    reach = sum(span_length_bound(len(alignment_normalize(s))) for s in subwords)
    body = draw(st.text("ab xá.", min_size=reach, max_size=reach + 40))
    return subwords, body + draw(st.sampled_from("abx."))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(retry_instances())
def test_align_matches_reference_kernel_after_unbounded_retry(instance):
    subwords, gold = instance
    _, g, _, normed = _prepare(subwords, gold)
    assert reference_solve_dp(normed, g, bounded=True) is None
    with RowRecorder() as recorder:
        assert_same_as_reference(subwords, gold)
    assert len(recorder.passes) == 2


def test_stored_cost_rows_are_the_span_weights_bit_for_bit():
    tables = CostTables()
    for ls in range(STORED_LENGTHS):
        rows = tables[ls]
        assert len(rows) == _stored_steps(ls) + 1 and rows[0] == []
        for t, row in enumerate(rows[1:], 1):
            gap = abs(t - ls)
            expected = [
                0.75 if d == 0 else 0.5 * (1.0 - d / max(t, ls)) for d in range(gap, gap + ls + 1)
            ]
            assert [x.hex() for x in row] == [x.hex() for x in expected]
    assert sorted(tables) == list(range(STORED_LENGTHS))


def _outcome(subwords, gold, cost_tables):
    try:
        alignment = align(subwords, gold, cost_tables)
    except AlignmentError as exc:
        return str(exc)
    return alignment.spans, alignment.total_weight.hex()


@st.composite
def shared_table_sequences(draw):
    """A pair that takes the unbounded retry, then pairs of words of 1 to 40 letters.

    The word lengths cross the lanes of one, two, four and eight bytes and
    the stored lengths (31 is the last one kept, 32 and 33 are past it); the
    retry's short subwords extend rows that the later pairs read.
    """
    sizes = st.sampled_from([1, 2, 3, 7, 8, 15, 16, 30, 31, 32, 33, 40])
    pairs = [draw(retry_instances())]
    for _ in range(draw(st.integers(2, 5))):
        words = [
            draw(st.text("abcdeklmnorstuáčř", min_size=n, max_size=n))
            for n in draw(st.lists(sizes, min_size=2, max_size=6))
        ]
        subwords = []
        for word in words:
            if draw(st.booleans()):
                k = draw(st.integers(0, len(word) - 1))
                word = word[:k] + draw(st.sampled_from("xyz")) + word[k + 1 :]
            subwords += _pieces(draw, word) if draw(st.integers(0, 3)) == 0 else [" " + word]
        pairs.append((subwords, " ".join(words)))
    return pairs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shared_table_sequences())
def test_one_command_table_aligns_as_a_fresh_one(pairs):
    subwords, gold = pairs[0]
    _, g, _, normed = _prepare(subwords, gold)
    assert reference_solve_dp(normed, g, bounded=True) is None  # the first pair retries
    shared = CostTables()
    for subwords, gold in pairs:
        assert _outcome(subwords, gold, shared) == _outcome(subwords, gold, CostTables())
    # no pair extended the command's rows: the retry's longer rows were its own
    assert max(shared) < STORED_LENGTHS
    assert all(rows == CostTables()[ls] for ls, rows in shared.items())


@pytest.mark.parametrize("casing", [CasingMode.CASED, CasingMode.UNCASED])
@pytest.mark.parametrize(
    "tokenizer",
    [
        TokenizerMode.word(),
        TokenizerMode.vocab_greedy(corpusgen_vocab()),
        TokenizerMode.char_chunks(1),
        TokenizerMode.char_chunks(2),
    ],
    ids=["word", "vocab", "chars1", "chars2"],
)
def test_align_matches_reference_kernel_on_corpusgen_pairs(tokenizer, casing):
    golds = gold_corpus(5, 11, min_words=6, max_words=14)
    for pair in corrupt_corpus(golds, uncased_noise_config(11)):
        assert_same_as_reference(tokenize(pair.source, tokenizer, casing), pair.gold)


def test_align_matches_reference_kernel_over_a_lengthening_fold():
    # U+0F43 folds to two characters, so the folded gold is longer than the
    # gold and its spans map back through cuts that repeat an offset
    gold = "a\u0f43b c\u0f43 \u0f43\u0f43d"
    assert len(alignment_normalize(gold)) == len(gold) + 4
    for subwords in (
        [" a\u0f43b", " c\u0f43", " \u0f43\u0f43d"],
        [" a\u0f42", "\u0fb7b", " c", " \u0f42\u0fb7\u0f42"],
        [" a", "b", " c\u0f43\u0f43"],
        [" \u0f42", " \u0fb7"],
    ):
        assert_same_as_reference(subwords, gold)
        assert_same_alignment(subwords, gold)
    assert align([" a\u0f43b", " c"], "a\u0f43b c").span_texts == [" a\u0f43b", " c"]


@pytest.mark.parametrize("run", [1, 2, 3, 7, 13, 14, 15, 25])
def test_align_matches_reference_kernel_across_a_space_run(run):
    # a start more than its span bound before the next word cannot reach it
    gold = "ab" + " " * run + "cd ef"
    for subwords in ([" ab", " cd", " ef"], [" a", " cd"], [" ab", "x", " ef"], [" abcd"]):
        assert_same_as_reference(subwords, gold)


def test_align_matches_reference_kernel_beyond_one_byte_counts():
    # 280 letters against 280 others: lanes of 512 bits and counts up to 280
    rng = random.Random(5)
    word = "".join(rng.choice("abcde") for _ in range(280))
    other = "".join(rng.choice("vwxyz") for _ in range(280))
    assert_same_as_reference([" " + word, " zz"], other + " " + word[:9] + "zz")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(large_instances(CYRILLIC + GREEK + "ab"))
def test_align_matches_reference_kernel_on_cyrillic_and_greek(instance):
    # most gold characters are missing from any one subword: zero match masks
    assert_same_as_reference(*instance)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([CYRILLIC, GREEK, LETTERS]),
    st.sampled_from([CYRILLIC, GREEK, LETTERS]),
    st.randoms(use_true_random=False),
)
def test_align_matches_reference_kernel_across_scripts(sub_letters, gold_letters, rng):
    # subwords of one script against gold of another, or of the same
    words = ["".join(rng.choice(gold_letters) for _ in range(rng.randint(1, 9))) for _ in range(9)]
    subwords = [" " + "".join(rng.choice(sub_letters) for _ in range(len(w))) for w in words]
    assert_same_as_reference(subwords[: rng.randint(1, 9)], " ".join(words))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    st.text(CYRILLIC + "ab", min_size=256, max_size=270),
    st.lists(st.tuples(st.integers(0, 255), st.sampled_from(CYRILLIC + "xz")), max_size=12),
    st.sampled_from(["", " ", "  "]),
)
def test_align_matches_reference_kernel_on_a_subword_of_256_or_more(word, edits, gap):
    # stripped lengths of 256 and more: lanes of 512 bits, counts past one byte
    chars = list(word)
    for k, ch in edits:
        chars[k] = ch
    gold = "ab" + gap + " " + "".join(chars) + " ba"
    assert_same_as_reference([" ab", " " + word, " ba"], gold)
    assert_same_as_reference([" " + word], "".join(chars[:200]))


@st.composite
def reach_instances(draw):
    """Short leading subwords before long ones, against a gold text longer than
    the leading subwords' span bounds, so that the first rows reach only a
    prefix of the gold text."""
    pieces = st.sampled_from([" a", "b", " b", ".", " xy", "á"])
    lead = draw(st.lists(pieces, min_size=1, max_size=3))
    words = st.text("abxyá", min_size=4, max_size=12).map(lambda w: " " + w)
    tail = draw(st.lists(words, min_size=1, max_size=4))
    gold_words = st.lists(st.text("abxyá.", min_size=2, max_size=12), min_size=6, max_size=16)
    gold = " ".join(draw(gold_words))
    assume(sum(span_length_bound(len(alignment_normalize(s))) for s in lead) < len(gold))
    return lead + tail, gold


@settings(max_examples=80, deadline=None, derandomize=True)
@given(reach_instances())
def test_align_matches_reference_kernel_where_reach_binds(instance):
    assert_same_as_reference(*instance)


def test_reach_binds_on_a_short_lead():
    # the third subword starts within 14 + 14 of the 1 + 51 gold characters
    subwords = [" a", " b", " " + "x" * 12, " " + "y" * 12, " " + "z" * 12]
    gold = "a b " + " ".join(["x" * 12, "y" * 12, "q" * 4, "z" * 12, "w" * 3])
    assert sum(span_length_bound(len(s)) for s in subwords[:2]) == 28 and len(gold) == 51
    assert_same_as_reference(subwords, gold)


@st.composite
def space_run_instances(draw):
    """Short subwords (small span bounds) against words split by runs of 2 to 5
    spaces, so that the first step at which a track forks falls among the
    steps taken two at a time, or by runs longer than a span bound, past
    which no fold reaches."""
    pieces = st.sampled_from([" a", "b", " ab", ".", "  a", " ba", "á"])
    subwords = draw(st.lists(pieces, min_size=1, max_size=5))
    words = draw(st.lists(st.text("abx.", min_size=1, max_size=4), min_size=1, max_size=6))
    # a run of 20 spaces is longer than the span bound of every piece
    seps = draw(st.lists(st.sampled_from([" ", "  ", "   ", "     ", " " * 20]), min_size=len(words)))
    gold = "".join(sep + w for sep, w in zip(seps, words))[1:]
    return subwords, gold


@settings(max_examples=200, deadline=None, derandomize=True)
@given(space_run_instances())
@example(([" a", " ab"], "ab" + " " * 20 + "xa"))
def test_align_matches_reference_kernel_across_space_runs_under_small_bounds(instance):
    assert_same_as_reference(*instance)


# --- groups of rows: lane widths, windows before the DP, streamed rows ---------


class RowRecorder:
    """Records the passes, rows and sets of ints of the alignments made inside it.

    ``passes`` holds, per pass of the DP (one ``_lane_plan`` each), the
    arguments of each row in DP order; ``groups`` holds ``(blocks, width,
    steps)`` per ``_lane_counts``.
    """

    def __enter__(self):
        self.passes, self.groups = [], []
        plan, row, counts = align_module._lane_plan, align_module._row, align_module._lane_counts

        def traced_plan(*args):
            self.passes.append([])
            return plan(*args)

        def traced_row(s, g, w_next, limit, lo, hi, *rest):
            runs = rest[3]
            self.passes[-1].append((g, w_next.tolist(), limit, lo, hi, runs))
            return row(s, g, w_next, limit, lo, hi, *rest)

        def traced_counts(blocks, lanes, steps, g):
            self.groups.append((list(blocks), align_module._lane_width(len(blocks[0][0])), steps))
            return counts(blocks, lanes, steps, g)

        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(align_module, "_lane_plan", traced_plan)
        self.patch.setattr(align_module, "_row", traced_row)
        self.patch.setattr(align_module, "_lane_counts", traced_counts)
        return self

    def __exit__(self, *exc):
        self.patch.undo()

    def windows(self):
        """Per row: the ``lo`` of ``_lane_plan``, the first lane that can reach a tail, and ``hi``.

        A lane reaches a finite tail if one of its ends within ``nsteps``
        steps, or the spaces after that end, has a finite ``w_next``; a lane
        before the first such lane never rises above ``-inf``.
        """
        out = []
        for rows in self.passes:
            for g, w_next, limit, lo, hi, runs in rows:
                m = len(g)
                nsteps = min(limit, m)
                ends = [e for e in range(m + 1) if w_next[e] != _NEG and g[e - 1 : e] != " "]
                ends += [q for q, n in runs if any(w_next[q + l] != _NEG for l in range(1, n + 1))]
                out.append((lo, max(0, min(ends, default=m + nsteps) - nsteps), hi))
        return out


def assert_grouped_like_reference(subwords, gold):
    """``assert_same_as_reference``, and no window starts after a lane that can reach a tail."""
    with RowRecorder() as recorder:
        assert_same_as_reference(subwords, gold)
    for lo, first, _ in recorder.windows():
        assert lo <= first
    for blocks, width, _ in recorder.groups:
        assert {align_module._lane_width(len(s)) for s, _, _ in blocks} == {width}
    return recorder


@st.composite
def width_instances(draw):
    """Words of 7, 8, 15 and 16 letters (lanes of one, two and four bytes), kept or edited."""
    words = [
        draw(st.text("abcdeklmnorstuáčř", min_size=n, max_size=n))
        for n in draw(st.lists(st.sampled_from([7, 8, 15, 16, 3]), min_size=4, max_size=10))
    ]
    subwords = []
    for word in words:
        if draw(st.booleans()):
            k = draw(st.integers(0, len(word) - 1))
            word = word[:k] + draw(st.sampled_from("xyz")) + word[k + 1 :]
        subwords += _pieces(draw, word) if draw(st.integers(0, 3)) == 0 else [" " + word]
    return subwords, " ".join(words)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(width_instances())
def test_groups_of_mixed_lane_widths_match_the_reference(instance):
    assert_grouped_like_reference(*instance)


def test_a_pair_with_lane_widths_of_one_two_and_four_bytes():
    words = ["abcdefg", "hijklmno", "pqrstuvwxyzabcd", "efghijklmnopqrst"]
    subwords = [" " + w for w in words * 3]
    gold = " ".join(w[:3] + "x" + w[4:] for w in words * 3)
    recorder = assert_grouped_like_reference(subwords, gold)
    assert len(recorder.passes) == 1  # the span bounds admit a cover
    assert {width for _, width, _ in recorder.groups} == {1, 2, 4}
    # rows of one width share their ints, each in a block of its own lanes
    assert any(len(blocks) > 1 for blocks, _, _ in recorder.groups)


@pytest.mark.parametrize(
    "subwords, gold",
    [
        ([" a", " b", " c"], "ab" * 30),
        ([" ab", "c", " de", "f"], "abc de  " * 9),
        ([" x", " y", ".", " z"], "x y . z " + "q" * 70),
    ],
)
def test_rows_with_empty_windows_match_the_reference(subwords, gold):
    # the later subwords' span bounds leave the first rows of the bounded pass
    # no finite tail to reach: their windows are empty before the DP
    recorder = assert_grouped_like_reference(subwords, gold)
    assert any(lo >= hi for lo, _, hi in recorder.windows())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(large_instances(), reach_instances(), space_run_instances(), tight_instances()))
def test_windows_before_the_dp_start_no_later_than_the_rows(instance):
    assert_grouped_like_reference(*instance)


def test_a_subword_of_256_or_more_beside_short_ones():
    rng = random.Random(11)
    long = "".join(rng.choice("abcde") for _ in range(300))
    subwords = [" ab", " cd", " " + long, " ef", " gh"]
    gold = "ab cd " + long[:100] + "x" + long[101:] + " ef gh"
    recorder = assert_grouped_like_reference(subwords, gold)
    assert {width for _, width, _ in recorder.groups} == {1, 64}


def test_a_row_past_the_budget_streams_its_steps():
    # the unbounded retry of two short subwords against 500 letters: its rows
    # run 501 steps over about 501 lanes, past GROUP_BYTES, so each streams
    # one step at a time and the alignment holds far less than those bytes
    subwords, gold = [" a", " b"], "x" * 500
    recorder = assert_grouped_like_reference(subwords, gold)
    streamed = [
        (blocks, width, steps) for blocks, width, steps in recorder.groups
        if sum(end - lo for _, lo, end in blocks) * steps * width > GROUP_BYTES
    ]
    assert streamed and len(recorder.passes) == 2
    tracemalloc.start()
    try:
        align(subwords, gold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 501 * 501


def test_a_group_goes_with_its_last_row():
    # an 80-word pair under the vocab tokenizer: its one pass forms about
    # thirty groups, whose steps outweigh its rows, and a stream that
    # outlived the last row of its group would keep them all
    pair = corrupt_corpus(gold_corpus(1, 14, min_words=80, max_words=80), cased_noise_config(14))[0]
    vocab = TokenizerMode.vocab_greedy(corpusgen_vocab())
    subwords = tokenize(pair.source, vocab, CasingMode.CASED)
    with RowRecorder() as recorder:
        align(subwords, pair.gold)
    m = len(recorder.passes[0][0][0])
    rows = sum(len(rows) + 1 for rows in recorder.passes) * (m + 1) * 8
    steps = sum(sum(end - lo for _, lo, end in b) * n * width for b, width, n in recorder.groups)
    assert len(recorder.groups) > 20 and steps > rows
    tracemalloc.start()
    try:
        align(subwords, pair.gold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows + steps // 2


def test_a_pair_past_the_cell_cap_is_refused():
    # five one-letter subwords against 2000 letters: only the unbounded retry
    # covers them, and it would price 5 * 2001 ** 2 spans
    assert 5 * 2001**2 > MAX_PAIR_CELLS
    with pytest.raises(AlignmentError, match="pair too large"):
        align([" a"] * 5, "x" * 2000)
    assert align([" a"] * 5, "x" * 300).spans[-1][1] == 301


def _letters(n, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


@pytest.mark.parametrize("length", [1000, 2000])
def test_a_long_subword_is_refused_before_its_lanes_run(monkeypatch, length):
    # one long token against about 4000 gold characters prices under the cap
    # by its spans alone, but each of its lanes takes 128 or 256 bytes a step
    # and its cost table holds millions of floats
    def refuse(*args):
        raise AssertionError("the pair ran")

    monkeypatch.setattr(align_module, "_lane_counts", refuse)
    monkeypatch.setattr(align_module, "_row", refuse)
    gold = " ".join(gold_corpus(1, 4, min_words=700, max_words=700)[0].split())[:3990]
    subwords = [" " + _letters(length, 6)]
    m = 1 + len(gold)
    assert m * min(span_length_bound(length), m) < MAX_PAIR_CELLS
    with pytest.raises(AlignmentError, match="pair too large"):
        align(subwords, gold)


@pytest.mark.parametrize("length", [200, 400])
def test_a_sentence_with_one_long_token_aligns(length):
    # a 100-word sentence with one 200- or 400-character token, a letter of it
    # changed: its lanes are priced but stay under the cap
    words = gold_corpus(1, 3, min_words=100, max_words=100)[0].split()
    token = _letters(length, 5)
    words[50] = token
    gold = " ".join(words)
    words[50] = token[:7] + "x" + token[8:]
    subwords = tokenize(" ".join(words), TokenizerMode.word(), CasingMode.UNCASED)
    alignment = align(subwords, gold)
    assert alignment.span_texts[50] == " " + token
    assert alignment.span_texts == [" " + w for w in gold.split()]


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_align_ab(a_src, b_src):
    return subprocess.run(
        [sys.executable, str(TESTS / "align_ab.py"), str(a_src), str(b_src),
         "--pairs", "2", "--rounds", "4", "--min-words", "3", "--max-words", "5"],
        capture_output=True, text=True, timeout=60,
    )


def test_align_ab_script_compares_a_tree_with_itself():
    done = run_align_ab(SRC, SRC)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "2 pairs, 4 rounds, seed 1"
    number = r"(\d+\.\d+)"
    for side, line in zip("AB", lines[1:3]):
        found = re.fullmatch(
            rf"{side} {re.escape(str(SRC))}: median {number} ms a pass, "
            rf"quartiles {number}-{number} ms", line,
        )
        assert found, line
        median, low, high = map(float, found.groups())
        assert low <= median <= high
    found = re.fullmatch(
        rf"A/B per round: quartiles {number}-{number}x, B won ([0-4]) of 4 rounds", lines[3]
    )
    assert found, lines[3]
    assert float(found[1]) <= float(found[2])
    assert re.fullmatch(rf"speedup \(A/B\): {number}x", lines[4]), lines[4]
    assert len(lines) == 5


def test_align_ab_script_fails_on_differing_alignments(tmp_path):
    shutil.copytree(
        SRC / "gecxform", tmp_path / "gecxform", ignore=shutil.ignore_patterns("__pycache__")
    )
    with open(tmp_path / "gecxform" / "align.py", "a", encoding="utf-8") as module:
        module.write(
            "\n_align = align\n\n\n"
            "def align(subwords, gold, cost_tables=None):\n"
            "    a = _align(subwords, gold, cost_tables)\n"
            "    return Alignment(a.gold, a.spans, a.total_weight + 1.0)\n"
        )
    done = run_align_ab(SRC, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.startswith("alignments differ for ")
