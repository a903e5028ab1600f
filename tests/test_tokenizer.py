import unicodedata
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecxform.errors import FormatError
from gecxform.textnorm import CasingMode, fold
from gecxform.tokenizer import (
    WORD_LEAD,
    TokenizerMode,
    detokenize,
    group_words,
    load_vocab,
    tokenize,
)

FIG_VOCAB = TokenizerMode.vocab_greedy({" gathe", "rin", " lea", "fes"})


def test_vocab_tokenize_worked_example():
    pieces = tokenize("gatherin leafes", FIG_VOCAB, CasingMode.UNCASED)
    assert pieces == [" gathe", "rin", " lea", "fes"]


def test_word_mode():
    pieces = tokenize("hello", TokenizerMode.word(), CasingMode.CASED)
    assert pieces == [" hello"]


def test_char_chunks():
    pieces = tokenize("ab cd", TokenizerMode.char_chunks(1), CasingMode.CASED)
    assert pieces == [" a", "b", " c", "d"]
    pieces = tokenize("abcdefg", TokenizerMode.char_chunks(3), CasingMode.CASED)
    assert pieces == [" abc", "def", "g"]


def test_uncased_normalizes_before_matching():
    pieces = tokenize("Gatherin LEAFES", FIG_VOCAB, CasingMode.UNCASED)
    assert pieces == [" gathe", "rin", " lea", "fes"]


def test_unknown_characters_fall_back_to_single_pieces():
    # " lea" is word-initial only, so mid-word "lea" decomposes to characters
    pieces = tokenize("gatherin qqlea", FIG_VOCAB, CasingMode.UNCASED)
    assert pieces == [" gathe", "rin", " q", "q", "l", "e", "a"]


def test_longest_match_wins():
    mode = TokenizerMode.vocab_greedy({" a", " ab", " abc", "d"})
    pieces = tokenize("abcd", mode, CasingMode.CASED)
    assert pieces == [" abc", "d"]


def test_empty_sentence_rejected():
    with pytest.raises(ValueError):
        tokenize("   ", TokenizerMode.word(), CasingMode.CASED)


def test_group_words_examples():
    pieces = tokenize("gatherin leafes", FIG_VOCAB, CasingMode.UNCASED)
    assert group_words(pieces) == [(" gatherin", (0, 2)), (" leafes", (2, 4))]
    pieces = tokenize("a", TokenizerMode.word(), CasingMode.CASED)
    assert group_words(pieces) == [(" a", (0, 1))]
    pieces = tokenize("xyz", TokenizerMode.char_chunks(1), CasingMode.CASED)
    assert group_words(pieces) == [(" xyz", (0, 3))]


def test_round_trip_retokenization():
    for mode in (FIG_VOCAB, TokenizerMode.word(), TokenizerMode.char_chunks(2)):
        for casing in CasingMode:
            pieces = tokenize("Gatherin  leafes", mode, casing)
            assert tokenize(detokenize(pieces), mode, casing) == pieces


TOKENIZERS = [
    TokenizerMode.word(),
    TokenizerMode.char_chunks(1),
    TokenizerMode.char_chunks(3),
    TokenizerMode.vocab_greedy({" a", " ab", "ab", "b", " Á", "č.", " ,", "."}),
]
SENTENCE = st.text(alphabet="abAÁč., \t", min_size=1, max_size=24).filter(lambda s: s.split())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(TOKENIZERS), st.sampled_from(list(CasingMode)), SENTENCE)
def test_word_starts_are_the_lead_pieces(mode, casing, sentence):
    words = fold(sentence, casing).split()
    pieces = tokenize(sentence, mode, casing)
    text = "".join(pieces)
    assert text == "".join(WORD_LEAD + w for w in words)
    offsets = accumulate((len(p) for p in pieces[:-1]), initial=0)
    lead_offsets = [o for o, p in zip(offsets, pieces) if p.startswith(WORD_LEAD)]
    assert lead_offsets == [i for i, ch in enumerate(text) if ch == WORD_LEAD]
    assert [word for word, _ in group_words(pieces)] == [WORD_LEAD + w for w in words]


def test_load_vocab(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(" gathe\nrin\n lea\nfes\n", encoding="utf-8")
    vocab = load_vocab(path)
    assert vocab == frozenset({" gathe", "rin", " lea", "fes"})


def test_load_vocab_reads_decomposed_pieces_as_composed(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(unicodedata.normalize("NFD", " řeka\n"), encoding="utf-8")
    mode = TokenizerMode.vocab_greedy(load_vocab(path))
    assert tokenize("řeka", mode, CasingMode.CASED) == [" řeka"]


def test_load_vocab_rejects_cased_pieces_in_uncased_mode(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(" Gathe\nrin\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_vocab(path, CasingMode.UNCASED)


def test_load_vocab_rejects_blank_interior_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(" a\n\nb\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_vocab(path)


def test_vocab_mode_requires_vocabulary():
    with pytest.raises(ValueError):
        TokenizerMode("vocab")
