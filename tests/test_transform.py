from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gecxform.transform as transform_module
from corpusgen import corpusgen_vocab, corrupted_corpus, uncased_noise_config
from gecxform.corpus import SentencePair
from gecxform.editscript import (
    KEEP,
    UNCORRECTABLE,
    CharEdit,
    CharTransformation,
    StringTransformation,
    UncorrectableMarker,
    apply_transformation,
    parse_transformation,
)
from gecxform.errors import FormatError
from gecxform.textnorm import CasingMode, fold
from gecxform.tokenizer import TokenizerMode
from gecxform.transform import (
    ALL_MODES,
    KEEP_ID,
    UNCORRECTABLE_ID,
    GranularityMode,
    LabeledSentence,
    TransformationDictionary,
    DictEntry,
    EntryError,
    apply_labels,
    dumps_dictionary,
    encode,
    induce,
    loads_dictionary,
    unit_pairs,
)
from test_editscript import rules

U = CasingMode.UNCASED
FIG_VOCAB = TokenizerMode.vocab_greedy({" gathe", "rin", " lea", "fes"})
FIG_PAIR = SentencePair("gatherin leafes", "Gathering leaves")
CHAR_SUB = GranularityMode("char", "subword")
CHAR_WORD = GranularityMode("char", "word")
STRING_WORD = GranularityMode("string", "word")


def fig_dictionary(min_count=1, mode=CHAR_SUB):
    return induce([FIG_PAIR], mode, U, min_count=min_count, tokenizer=FIG_VOCAB)


def test_granularity_labels():
    assert CHAR_SUB.label == "char-at-subword"
    assert GranularityMode.parse("string-at-word") == STRING_WORD
    with pytest.raises(ValueError):
        GranularityMode.parse("char-at-sentence")
    assert len(ALL_MODES) == 4


def test_induce_worked_example():
    dictionary = fig_dictionary()
    serialized = {e.ident: dumps_line(e) for e in dictionary.entries}
    assert dictionary.size == 5
    assert isinstance(dictionary.entries[0].transformation, UncorrectableMarker)
    assert dictionary.entries[1].transformation == KEEP
    forms = {s for s in serialized.values()}
    assert forms == {
        "UNCORRECTABLE",
        "KEEP",
        "CHAR upc@s2",
        "CHAR ins@e1=g",
        "CHAR rep@s1=v",
    }


def dumps_line(entry):
    from gecxform.editscript import serialize_transformation

    return serialize_transformation(entry.transformation)


def test_induce_huge_threshold_keeps_only_reserved_entries():
    dictionary = fig_dictionary(min_count=999999)
    assert dictionary.size == 2
    assert [e.ident for e in dictionary.entries] == [UNCORRECTABLE_ID, KEEP_ID]


def test_induce_counting_oracle():
    three_copies = induce([FIG_PAIR] * 3, CHAR_SUB, U, min_count=3, tokenizer=FIG_VOCAB)
    one_copy = fig_dictionary(min_count=1)
    assert {e.transformation for e in three_copies.entries} == {
        e.transformation for e in one_copy.entries
    }
    counts = {e.transformation: e.count for e in three_copies.entries}
    assert all(c == 3 for t, c in counts.items() if not isinstance(t, UncorrectableMarker))


def test_every_uncorrectable_marker_is_the_one_object():
    # the marker compares by identity, so every lookup of entry 0 relies on this
    assert parse_transformation("UNCORRECTABLE") is UNCORRECTABLE
    # the deleted word " kocka" is counted as uncorrectable, then thresholded
    pairs = [SentencePair("kocka pes", "pes")]
    dictionary = induce(pairs, STRING_WORD, U, min_count=1, tokenizer=TokenizerMode.word())
    assert dictionary.entries[UNCORRECTABLE_ID] == DictEntry(UNCORRECTABLE_ID, 1, UNCORRECTABLE)
    assert dictionary.entries[UNCORRECTABLE_ID].transformation is UNCORRECTABLE
    loaded = loads_dictionary(dumps_dictionary(dictionary))
    assert loaded.entries[UNCORRECTABLE_ID].transformation is UNCORRECTABLE
    assert loaded == dictionary


def test_induce_threshold_monotone():
    pairs = [FIG_PAIR, FIG_PAIR, SentencePair("fes rin", "ves rin")]
    by_count = {
        k: induce(pairs, CHAR_SUB, U, min_count=k, tokenizer=FIG_VOCAB) for k in (1, 2, 3)
    }
    for k in (1, 2):
        larger = {e.transformation for e in by_count[k].entries}
        smaller = {e.transformation for e in by_count[k + 1].entries}
        assert smaller <= larger


def test_word_tokenizer_makes_unit_kinds_agree():
    pairs = [SentencePair("kocka leze", "Kočka leze"), SentencePair("pes stek", "pes štěká")]
    sub = induce(pairs, CHAR_SUB, U, min_count=1, tokenizer=TokenizerMode.word())
    word = induce(pairs, CHAR_WORD, U, min_count=1, tokenizer=TokenizerMode.word())
    assert {e.transformation for e in sub.entries} == {
        e.transformation for e in word.entries
    }


def test_encode_worked_example():
    dictionary = fig_dictionary()
    labeled = encode(FIG_PAIR.source, FIG_PAIR.gold, dictionary, FIG_VOCAB)
    assert labeled.units == (" gathe", "rin", " lea", "fes")
    got = [dumps_line(dictionary.entries[l]) for l in labeled.labels]
    assert got == ["CHAR upc@s2", "CHAR ins@e1=g", "KEEP", "CHAR rep@s1=v"]


def test_encode_identity_is_all_keep():
    dictionary = fig_dictionary()
    labeled = encode("gatherin leafes", "gatherin leafes", dictionary, FIG_VOCAB)
    assert all(l == KEEP_ID for l in labeled.labels)


def test_encode_falls_back_to_uncorrectable():
    reserved = TransformationDictionary(
        CHAR_SUB, U, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP)),
    )
    labeled = encode("ab", "zq", reserved, TokenizerMode.word())
    assert labeled.labels == (UNCORRECTABLE_ID,)


def test_encode_fallback_finds_equivalent_entry():
    # built transformation for "aa" -> "a" is del@s2, but only del@e1 is
    # present; the fallback scan must accept it because outputs agree
    entry = CharTransformation(base_edits=(CharEdit("del", "e", 1),))
    dictionary = TransformationDictionary(
        CHAR_SUB, CasingMode.CASED, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP), DictEntry(2, 1, entry)),
    )
    labeled = encode("aa", "a", dictionary, TokenizerMode.word())
    assert labeled.labels == (2,)


def test_encode_fallback_takes_the_lowest_matching_id():
    # the built del@s2 is absent and both entries rewrite " aa" into " a"
    deletions = [CharTransformation(base_edits=(CharEdit("del", "e", k),)) for k in (1, 2)]
    dictionary = TransformationDictionary(
        CHAR_SUB, U, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP),
         DictEntry(2, 1, deletions[0]), DictEntry(3, 1, deletions[1])),
    )
    assert dictionary.label(" aa", " a") == 2


def test_encode_empty_span_in_string_grain_skips_the_scan():
    # no string rule yields an empty unit, so the scan finds no entry
    dictionary = TransformationDictionary(
        STRING_WORD, U, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP),
         DictEntry(2, 1, StringTransformation("append", "s")),
         DictEntry(3, 1, StringTransformation("replace", " a"))),
    )
    assert dictionary.label(" kocka", "") == UNCORRECTABLE_ID


def test_a_dictionary_labels_each_unit_and_span_once(monkeypatch):
    # the built del@s2 is absent, so the first encoding scans the dictionary
    dictionary = TransformationDictionary(
        CHAR_SUB, U, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP),
         DictEntry(2, 1, CharTransformation(base_edits=(CharEdit("del", "e", 1),)))),
    )
    applied = []
    original = transform_module.apply_transformation

    def counting(transformation, unit):
        applied.append(unit)
        return original(transformation, unit)

    monkeypatch.setattr(transform_module, "apply_transformation", counting)
    first = encode("kocka aa", "kocka a", dictionary, TokenizerMode.word())
    scanned = len(applied)
    second = encode("kocka aa", "kocka a", dictionary, TokenizerMode.word())
    assert first == second and first.labels == (KEEP_ID, 2)
    assert scanned > 0 and len(applied) == scanned


def test_encode_is_deterministic():
    dictionary = fig_dictionary()
    a = encode(FIG_PAIR.source, FIG_PAIR.gold, dictionary, FIG_VOCAB)
    b = encode(FIG_PAIR.source, FIG_PAIR.gold, dictionary, FIG_VOCAB)
    assert a == b


def test_apply_labels_worked_example():
    dictionary = fig_dictionary()
    labeled = encode(FIG_PAIR.source, FIG_PAIR.gold, dictionary, FIG_VOCAB)
    assert apply_labels(labeled, dictionary) == "Gathering leaves"


def test_apply_labels_all_keep_is_identity():
    dictionary = fig_dictionary()
    units = (" gathe", "rin", " lea", "fes")
    labeled = LabeledSentence(units, (KEEP_ID,) * 4)
    assert apply_labels(labeled, dictionary) == "gatherin leafes"


def test_apply_labels_inapplicable_keeps_unit():
    entry = CharTransformation(base_edits=(CharEdit("rep", "e", 9, "x"),))
    dictionary = TransformationDictionary(
        CHAR_SUB, U, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP), DictEntry(2, 1, entry)),
    )
    labeled = LabeledSentence((" ab",), (2,))
    assert apply_labels(labeled, dictionary) == "ab"


def test_apply_labels_unknown_id_raises():
    dictionary = fig_dictionary()
    labeled = LabeledSentence((" x",), (99,))
    with pytest.raises(KeyError):
        apply_labels(labeled, dictionary)


def test_encode_apply_round_trip_all_modes():
    pairs = [
        SentencePair("kocka leze pres plot", "Kočka leze přes plot"),
        SentencePair("gatherin leafes", "Gathering leaves"),
        SentencePair("neco jineho tady", "něco jiného tady"),
    ]
    for mode in ALL_MODES:
        for casing in CasingMode:
            dictionary = induce(
                pairs, mode, casing, min_count=1, tokenizer=TokenizerMode.char_chunks(3)
            )
            for pair in pairs:
                labeled = encode(pair.source, pair.gold, dictionary, TokenizerMode.char_chunks(3))
                if UNCORRECTABLE_ID in labeled.labels:
                    continue
                assert apply_labels(labeled, dictionary) == pair.gold


def corpusgen_tokenizer(kind: str, casing: CasingMode) -> TokenizerMode:
    """The word, chars-2 or corpusgen-vocabulary tokenizer; uncased, the pieces are folded."""
    if kind == "word":
        return TokenizerMode.word()
    if kind == "chars":
        return TokenizerMode.char_chunks(2)
    return TokenizerMode.vocab_greedy({fold(piece, casing) for piece in corpusgen_vocab()})


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_labelled_units_decode_to_their_gold_spans(seed):
    # held-out pairs miss the lookup, so fallback hits are tested as well
    train = corrupted_corpus(5, seed, uncased_noise_config(seed))
    held_out = corrupted_corpus(3, seed + 1, uncased_noise_config(seed + 1))
    for mode, casing, kind in product(ALL_MODES, CasingMode, ["word", "vocab", "chars"]):
        tokenizer = corpusgen_tokenizer(kind, casing)
        dictionary = induce(train, mode, casing, min_count=1, tokenizer=tokenizer)
        for pair in train + held_out:
            units, spans = unit_pairs(pair.source, pair.gold, mode, casing, tokenizer)
            labeled = encode(pair.source, pair.gold, dictionary, tokenizer)
            assert labeled.units == tuple(units)
            for unit, span, label in zip(units, spans, labeled.labels):
                if label != UNCORRECTABLE_ID:
                    assert apply_transformation(dictionary.transformation_for(label), unit) == span
            if UNCORRECTABLE_ID not in labeled.labels:
                assert apply_labels(labeled, dictionary) == pair.gold
            elif casing is U and mode.grain == "char":
                # uncased, every character rule is reachable, so in-sample none is 0
                assert pair not in train, labeled


# few letters, so that several rules often rewrite a unit into one span:
# "ß" uppercases to "SS", "İ" lowercases to "i" and a combining dot, "ı"
# uppercases to "I"; diacritic payloads with and without a diacritic
LABEL_LETTERS = "asßıiIİá"
LABEL_TEXT = st.text(LABEL_LETTERS + " ", min_size=0, max_size=4)
EDIT_KINDS = ["ins", "rep", "del", "upc", "dia", "rep+upc"]


@st.composite
def parsed_char_rules(draw):
    """A character rule as a dictionary file writes it: multi-character
    payloads, case and diacritic edits in any number and place, and
    uppercased replacements ("ß" -> "SS", "ı" -> "I")."""
    edits = []
    for kind in draw(st.lists(st.sampled_from(EDIT_KINDS), min_size=1, max_size=3)):
        at = f"@{draw(st.sampled_from('se'))}{draw(st.integers(1, 2))}"
        if kind in ("ins", "rep"):
            edits.append(f"{kind}{at}=" + draw(st.text(LABEL_LETTERS, min_size=1, max_size=2)))
        elif kind == "dia":
            edits.append(f"dia{at}=" + draw(st.sampled_from("áíaiİ")))
        elif kind == "rep+upc":
            edits += [f"rep{at}=" + draw(st.sampled_from("ßıa")), "upc" + at]
        else:
            edits.append(kind + at)
    return parse_transformation("CHAR " + ";".join(edits))


@st.composite
def string_rules(draw):
    op = draw(st.sampled_from(["replace", "append", "prepend"]))
    return StringTransformation(op, draw(st.text(LABEL_LETTERS + " ", min_size=1, max_size=3)))


@st.composite
def label_cases(draw):
    """A dictionary of one grain and casing, and ``(unit, span)`` pairs to label.

    Rules are drawn (parsed character rules, string rules) or built from
    random pairs, in random id order; a span is mostly an entry applied to
    the unit, so that several entries often match and the lowest id wins.
    """
    grain = draw(st.sampled_from(["char", "string"]))
    casing = draw(st.sampled_from(list(CasingMode)))
    drawn = parsed_char_rules() if grain == "char" else string_rules()
    rules = draw(st.lists(drawn, max_size=20))
    for _ in range(draw(st.integers(0, 10))):
        built = transform_module.build_unit_transformation(
            draw(LABEL_TEXT), draw(LABEL_TEXT), grain, casing
        )
        if built is not None:
            rules.append(built)
    rules = draw(st.permutations([r for r in dict.fromkeys(rules) if r != KEEP]))
    entries = [DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP)]
    entries += [DictEntry(i, 1, r) for i, r in enumerate(rules, 2)]
    dictionary = TransformationDictionary(
        GranularityMode(grain, "subword"), casing, 1, tuple(entries)
    )
    pairs = []
    for _ in range(draw(st.integers(1, 10))):
        unit = draw(LABEL_TEXT)
        span = draw(LABEL_TEXT)
        if rules and draw(st.integers(0, 3)):
            span = apply_transformation(draw(st.sampled_from(rules)), unit) or span
        pairs.append((unit, span))
    return dictionary, pairs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(label_cases())
def test_label_equals_the_id_order_walk(case):
    dictionary, pairs = case
    for unit, span in pairs:
        built = transform_module.build_unit_transformation(
            unit, span, dictionary.mode.grain, dictionary.casing
        )
        ident = None if built is None else dictionary.lookup(built)
        if ident is None:
            ident = next(
                (e.ident for e in dictionary.entries[1:]
                 if apply_transformation(e.transformation, unit) == span),
                UNCORRECTABLE_ID,
            )
        assert dictionary.label(unit, span) == ident


def test_label_finds_a_rule_whose_diacritic_edit_shortens_the_output():
    # U+0F43 strips to two characters, so the diacritic edit writes one
    # character over the two that the insert wrote: the output is one
    # character shorter than the base edits make it
    rule = parse_transformation("CHAR ins@s1=\u0f42\u0fb7;dia@s1=\u0f43")
    dictionary = TransformationDictionary(
        CHAR_SUB, CasingMode.CASED, 1,
        (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP), DictEntry(2, 1, rule)),
    )
    assert apply_transformation(rule, "a") == "\u0f43a"
    assert dictionary.label("a", "\u0f43a") == 2


def test_dictionary_file_round_trip():
    dictionary = fig_dictionary(min_count=1)
    text = dumps_dictionary(dictionary)
    assert text.startswith("mode=char-at-subword casing=uncased min_count=1\n")
    loaded = loads_dictionary(text)
    assert loaded.mode == dictionary.mode
    assert loaded.casing == dictionary.casing
    assert loaded.entries == dictionary.entries
    assert dumps_dictionary(loaded) == text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(ALL_MODES),
    st.sampled_from(list(CasingMode)),
    st.integers(1, 5),
    st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
    st.data(),
)
def test_dictionary_files_read_back_as_written(mode, casing, min_count, reserved, data):
    drawn = data.draw(st.lists(rules(mode.grain), max_size=8, unique=True))
    entries = [DictEntry(0, reserved[0], UNCORRECTABLE), DictEntry(1, reserved[1], KEEP)]
    entries += [DictEntry(i, data.draw(st.integers(0, 10**6)), r) for i, r in enumerate(drawn, 2)]
    dictionary = TransformationDictionary(mode, casing, min_count, tuple(entries))
    assert loads_dictionary(dumps_dictionary(dictionary)) == dictionary


def test_dictionary_file_errors():
    with pytest.raises(FormatError):
        loads_dictionary("")
    with pytest.raises(FormatError):
        loads_dictionary("mode=char-at-subword casing=uncased\n")
    good = dumps_dictionary(fig_dictionary())
    with pytest.raises(FormatError):
        loads_dictionary(good + "9\tnot-a-count\tKEEP\n")


def test_dictionary_requires_reserved_entries():
    with pytest.raises(ValueError):
        TransformationDictionary(CHAR_SUB, U, 1, (DictEntry(0, 0, UNCORRECTABLE),))
    with pytest.raises(ValueError):
        TransformationDictionary(
            CHAR_SUB, U, 1, (DictEntry(0, 0, KEEP), DictEntry(1, 0, UNCORRECTABLE))
        )


@pytest.mark.parametrize(
    "mode, rule",
    [(CHAR_SUB, StringTransformation("replace", " dog")),
     (STRING_WORD, parse_transformation("CHAR del@e1"))],
    ids=["string-rule-in-char-dict", "char-rule-in-string-dict"],
)
def test_a_dictionary_refuses_a_rule_of_the_other_grain(mode, rule):
    entries = (DictEntry(0, 0, UNCORRECTABLE), DictEntry(1, 0, KEEP), DictEntry(2, 1, rule))
    with pytest.raises(EntryError) as raised:
        TransformationDictionary(mode, U, 1, entries)
    assert raised.value.index == 2
    assert str(raised.value).endswith(f"is not a {mode.grain} rule")


def test_labeled_sentence_validation():
    with pytest.raises(ValueError):
        LabeledSentence(("a",), (1, 2))
