import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecxform import textnorm
from gecxform.textnorm import (
    PUNCT_PLACEHOLDER,
    CasingMode,
    alignment_normalize,
    alignment_cuts,
    case_diff,
    fold,
    strip_diacritics,
)

MIXED_ALPHABET = "abcKPŘ čšžáéíě .,!?-€+ \t́"


def nfd_oracle(text):
    # independent rendering of "decompose, drop marks, recompose"
    decomposed = unicodedata.normalize("NFD", text)
    return unicodedata.normalize(
        "NFC", "".join(c for c in decomposed if not unicodedata.combining(c))
    )


def test_strip_diacritics_examples():
    assert strip_diacritics("abc") == "abc"
    assert strip_diacritics("příliš") == "prilis"
    assert strip_diacritics("Ž") == "Z"


def test_strip_diacritics_matches_decomposition_oracle():
    rng = random.Random(11)
    for _ in range(300):
        text = "".join(rng.choice(MIXED_ALPHABET) for _ in range(rng.randint(0, 12)))
        assert strip_diacritics(text) == nfd_oracle(text)


def test_strip_diacritics_idempotent():
    rng = random.Random(12)
    for _ in range(300):
        text = "".join(rng.choice(MIXED_ALPHABET) for _ in range(rng.randint(0, 12)))
        once = strip_diacritics(text)
        assert strip_diacritics(once) == once


def test_standalone_marks_are_dropped():
    assert strip_diacritics("́") == ""
    assert strip_diacritics("ábc") == "abc"


def test_alignment_normalize_examples():
    assert alignment_normalize("Gathe") == "gathe"
    folded = alignment_normalize("!?")
    assert len(folded) == 2 and folded[0] == folded[1]
    assert alignment_normalize("Škoda,") == "skoda" + alignment_normalize(",")


def test_alignment_normalize_punctuation_classes():
    # currency and math symbols fold like ordinary punctuation
    assert alignment_normalize("€") == alignment_normalize("!")
    assert alignment_normalize("+") == alignment_normalize(".")
    assert alignment_normalize("\t") == " "


def test_alignment_normalize_idempotent_and_length_preserving():
    rng = random.Random(13)
    plain = "abcKPR con .,!? +€ xyz"
    for _ in range(300):
        text = "".join(rng.choice(plain) for _ in range(rng.randint(0, 15)))
        once = alignment_normalize(text)
        assert alignment_normalize(once) == once
        assert len(once) == len(text)
    # idempotence also holds for combining-sequence inputs
    for _ in range(300):
        text = "".join(rng.choice(MIXED_ALPHABET) for _ in range(rng.randint(0, 15)))
        once = alignment_normalize(text)
        assert alignment_normalize(once) == once


def test_normalized_view_provenance_monotone():
    rng = random.Random(14)
    for _ in range(200):
        text = "".join(rng.choice(MIXED_ALPHABET) for _ in range(rng.randint(0, 15)))
        normalized, cuts = alignment_cuts(text)
        assert len(cuts) == len(normalized) + 1
        assert cuts[0] == 0
        assert cuts[-1] == len(text)
        assert cuts == sorted(cuts)


def test_case_diff_examples():
    assert case_diff("gathering", "Gathering") == [1]
    assert case_diff(" gathering", " Gathering") == [2]
    assert case_diff("abc", "abc") == []
    assert case_diff("usa", "USA") == [1, 2, 3]


def test_case_diff_length_mismatch():
    with pytest.raises(ValueError):
        case_diff("ab", "abc")


def test_fold_modes():
    assert fold("Kočka", CasingMode.CASED) == "Kočka"
    assert fold("Kočka", CasingMode.UNCASED) == "kocka"
    assert fold("İstanbul", CasingMode.UNCASED) == "istanbul"
    # one character at a time: a word-final capital sigma folds as it does alone
    assert fold("ΟΔΟΣ", CasingMode.UNCASED) == "οδοσ"


def is_punct_reference(ch):
    # punctuation (P*), currency symbols (Sc) and math symbols (Sm) fold alike
    category = unicodedata.category(ch)
    return category[0] == "P" or category in ("Sc", "Sm")


def cuts_reference(text):
    # the fold of one character at a time, without a memo
    out, prov = [], []
    for idx, ch in enumerate(text):
        if ch.isspace():
            folded = " "
        elif is_punct_reference(ch):
            folded = PUNCT_PLACEHOLDER
        else:
            folded = nfd_oracle(ch).lower()
        out.append(folded)
        prov += [idx] * len(folded)
    # the first cut is 0 and the last is the end of the text (one cut if nothing is left)
    return "".join(out), [0, *prov[1:], len(text)] if prov else [len(text)]


# any code point, with combining marks, whitespace variants, "İ" (whose
# lowercase is two code points) and U+0F43 (which folds to two) drawn often
UNICODE_TEXT = st.text(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from("\u0301\u0308\u0307\u030c \t\n\x0b\x0c\r\x1c\x85\xa0\u2028\u3000"),
        st.sampled_from("İıẞǅﬁΐё\u0f43"),
    ),
    max_size=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(UNICODE_TEXT, min_size=1, max_size=4))
def test_memoized_view_matches_per_character_reference(texts):
    # the first read of each letter fills the fold table and a later read hits it
    for ch in set("".join(texts)):
        textnorm._FOLDED_CHARS.pop(ch, None)
    for text in texts * 2:
        normalized, cuts = alignment_cuts(text)
        assert (normalized, cuts) == cuts_reference(text)
        assert alignment_normalize(text) == normalized
        letters = {ch for ch in text if not ch.isspace() and not is_punct_reference(ch)}
        assert letters <= textnorm._FOLDED_CHARS.keys()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(UNICODE_TEXT)
def test_uncased_fold_is_the_join_of_character_folds(text):
    for ch in set(text):
        textnorm._FOLDED_CHARS.pop(ch, None)
    expected = "".join(nfd_oracle(ch).lower() for ch in text)
    assert fold(text, CasingMode.UNCASED) == expected  # a first read
    assert fold(text, CasingMode.UNCASED) == expected  # a later read


@settings(max_examples=300, deadline=None, derandomize=True)
@given(UNICODE_TEXT)
def test_alignment_normalize_of_the_uncased_fold_is_the_alignment_normalize(text):
    assert alignment_normalize(fold(text, CasingMode.UNCASED)) == alignment_normalize(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(st.characters(max_codepoint=127)))
def test_strip_diacritics_returns_ascii_text_itself(text):
    assert strip_diacritics(text) is text
    assert strip_diacritics(text) == nfd_oracle(text)


# any code point (lone surrogates included), Hangul syllables (which decompose
# to jamo and recompose), U+0F43 (which strips to two code points), "İ" and "ǅ"
SINGLE_CHARACTERS = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
    st.sampled_from("\u0f43İǅ"),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(SINGLE_CHARACTERS)
def test_a_single_character_strips_to_the_oracle_on_the_first_and_the_memo_call(ch):
    textnorm._STRIPPED_CHARS.pop(ch, None)
    expected = nfd_oracle(ch)
    assert strip_diacritics(ch) == expected
    assert (ch in textnorm._STRIPPED_CHARS) == (not ch.isascii())
    assert strip_diacritics(ch) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(UNICODE_TEXT)
def test_strip_diacritics_matches_the_oracle_on_any_text(text):
    assert strip_diacritics(text) == nfd_oracle(text)
