import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import ALPHABETS
from gecxform.editscript import (
    DELETE,
    INSERT,
    KEEP,
    REPLACE,
    UNCORRECTABLE,
    CharEdit,
    CharTransformation,
    StringTransformation,
    UnreachableSpanError,
    apply_char_transformation,
    apply_string_transformation,
    apply_transformation,
    build_char_transformation,
    build_string_transformation,
    minimal_edit_script,
    parse_transformation,
    serialize_transformation,
)
from gecxform.errors import FormatError
from gecxform.textnorm import CasingMode, fold
from test_align import lev_cells

C = CasingMode.CASED
U = CasingMode.UNCASED


def random_word(rng, alphabet="abčd", max_len=8):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


# --- minimal edit script ------------------------------------------------------


def test_edit_script_examples():
    assert minimal_edit_script("fes", "ves") == [(1, REPLACE, "v")]
    assert minimal_edit_script("abc", "abc") == []
    assert minimal_edit_script("rin", "ring") == [(4, INSERT, "g")]


def test_edit_script_minimality_and_replay():
    rng = random.Random(31)
    for _ in range(400):
        src = random_word(rng)
        dst = random_word(rng)
        script = minimal_edit_script(src, dst)
        assert len(script) == lev_cells(src, dst)
        assert apply_char_transformation(build_char_transformation(src, dst, C), src) == dst


def test_edit_script_prefers_match_then_replace():
    # deleting from "aa" keeps the later character
    assert minimal_edit_script("aa", "a") == [(1, DELETE, "")]
    # a swap is two replacements, not delete+insert
    assert minimal_edit_script("ab", "ba") == [(1, REPLACE, "b"), (2, REPLACE, "a")]


# --- char transformations -----------------------------------------------------


def test_build_worked_example_subwords():
    t = build_char_transformation(" gathe", " Gathe", U)
    assert t == CharTransformation(case_edits=(CharEdit("upc", "s", 2),))

    t = build_char_transformation("rin", "ring", U)
    assert t == CharTransformation(base_edits=(CharEdit("ins", "e", 1, "g"),))

    t = build_char_transformation("fes", "ves", U)
    assert t == CharTransformation(base_edits=(CharEdit("rep", "s", 1, "v"),))


def test_build_worked_example_words():
    t = build_char_transformation(" gatherin", " Gathering", U)
    assert t.base_edits == (CharEdit("ins", "e", 1, "g"),)
    assert t.case_edits == (CharEdit("upc", "s", 2),)

    t = build_char_transformation(" leafes", " leaves", U)
    assert t == CharTransformation(base_edits=(CharEdit("rep", "e", 3, "v"),))


def test_build_generality_go_walk():
    a = build_char_transformation("go", "Going", C)
    b = build_char_transformation("walk", "Walking", C)
    assert a == b
    assert a.case_edits == (CharEdit("upc", "s", 1),)
    assert [e.payload for e in a.base_edits] == ["i", "n", "g"]
    assert {(e.anchor, e.index) for e in a.base_edits} == {("e", 1)}


def test_build_diacritics_restoration():
    t = build_char_transformation("prilis", "příliš", U)
    assert t.base_edits == ()
    assert t.case_edits == ()
    assert [e.payload for e in t.diacritic_edits] == ["ř", "í", "š"]
    assert apply_char_transformation(t, "prilis") == "příliš"


def test_build_round_trip_property():
    rng = random.Random(32)
    diacritic_map = {"a": "á", "c": "č", "e": "ě", "i": "í"}
    for _ in range(400):
        casing = rng.choice([C, U])
        unit = random_word(rng, "abcei", max_len=6)
        gold = random_word(rng, "abcei", max_len=6)
        # sprinkle diacritics and uppercase onto the gold side
        gold = "".join(
            diacritic_map.get(ch, ch) if rng.random() < 0.3 else ch for ch in gold
        )
        gold = "".join(
            ch.upper() if rng.random() < 0.2 else ch for ch in gold
        )
        if casing is C and not unit and not gold:
            continue
        t = build_char_transformation(unit, gold, casing)
        assert apply_char_transformation(t, unit) == gold


@st.composite
def unit_span_pairs(draw):
    """A word and a recased, folded or unrelated word of one alphabet, either
    way round, in NFC or NFD, with or without the leading space."""
    word = st.text(alphabet=draw(st.sampled_from(ALPHABETS)), min_size=1, max_size=7)
    w = draw(word)
    v = draw(st.sampled_from([w.lower(), w.upper(), w.capitalize(), fold(w, U)]) | word)
    form, lead = draw(st.sampled_from(["NFC", "NFD"])), draw(st.sampled_from(["", " "]))
    return tuple(unicodedata.normalize(form, lead + x) for x in draw(st.permutations([w, v])))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(unit_span_pairs(), st.sampled_from([C, U]))
def test_build_reaches_the_span_or_raises(pair, casing):
    unit, span = pair
    try:
        t = build_char_transformation(unit, span, casing)
    except UnreachableSpanError:
        return
    assert apply_char_transformation(t, unit) == span


def test_build_base_edit_count_is_minimal():
    rng = random.Random(33)
    for _ in range(300):
        unit = random_word(rng, "abcd", max_len=8)
        gold = random_word(rng, "abcd", max_len=8)
        t = build_char_transformation(unit, gold, C)
        assert len(t.base_edits) == lev_cells(unit, gold)


def test_build_unreachable_downcase():
    with pytest.raises(UnreachableSpanError):
        build_char_transformation(" The", " the", C)


def test_apply_char_examples():
    t = CharTransformation(base_edits=(CharEdit("rep", "s", 1, "v"),))
    assert apply_char_transformation(t, "fes") == "ves"
    assert apply_char_transformation(CharTransformation(), "x") == "x"
    t = CharTransformation(base_edits=(CharEdit("rep", "e", 3, "v"),))
    assert apply_char_transformation(t, "no") is None


def test_apply_char_out_of_range_and_collisions():
    toolong = CharTransformation(base_edits=(CharEdit("ins", "s", 9, "x"),))
    assert apply_char_transformation(toolong, "ab") is None
    collide = CharTransformation(
        base_edits=(CharEdit("del", "s", 1), CharEdit("del", "e", 2))
    )
    assert apply_char_transformation(collide, "ab") is None


def test_apply_diacritic_payload_must_match_base():
    t = CharTransformation(diacritic_edits=(CharEdit("dia", "s", 1, "č"),))
    assert apply_char_transformation(t, "cat") == "čat"
    assert apply_char_transformation(t, "bat") is None


def test_apply_uppercase_then_diacritic_order():
    t = CharTransformation(
        case_edits=(CharEdit("upc", "s", 1),),
        diacritic_edits=(CharEdit("dia", "s", 1, "Š"),),
    )
    assert apply_char_transformation(t, "stesti") == "Štesti"


# --- string transformations ---------------------------------------------------


def test_string_build_examples():
    assert build_string_transformation(" lea", " lea") == KEEP
    assert build_string_transformation("rin", "ring") == StringTransformation("append", "g")
    assert build_string_transformation(" gathe", " Gathe") == StringTransformation(
        "replace", " Gathe"
    )
    assert build_string_transformation("b", "ab") == StringTransformation("prepend", "a")


def test_string_build_cannot_erase():
    with pytest.raises(UnreachableSpanError):
        build_string_transformation("abc", "")


def test_string_apply_examples():
    assert apply_string_transformation(KEEP, "x") == "x"
    assert (
        apply_string_transformation(StringTransformation("replace", " leaves"), " leafes")
        == " leaves"
    )
    assert apply_string_transformation(StringTransformation("append", "g"), "rin") == "ring"
    assert apply_string_transformation(StringTransformation("prepend", "a"), "b") == "ab"


def test_apply_transformation_dispatch():
    assert apply_transformation(UNCORRECTABLE, "word") == "word"
    assert apply_transformation(KEEP, "word") == "word"
    t = CharTransformation(base_edits=(CharEdit("rep", "e", 9, "x"),))
    assert apply_transformation(t, "ab") is None


# --- serialization ------------------------------------------------------------


def test_serialize_golden_forms():
    assert serialize_transformation(UNCORRECTABLE) == "UNCORRECTABLE"
    assert serialize_transformation(KEEP) == "KEEP"
    assert (
        serialize_transformation(StringTransformation("replace", " leaves"))
        == "REPLACE %20leaves"
    )
    t = CharTransformation(
        base_edits=(CharEdit("ins", "e", 1, "g"),),
        case_edits=(CharEdit("upc", "s", 2),),
    )
    assert serialize_transformation(t) == "CHAR ins@e1=g;upc@s2"


def test_serialize_percent_encoding():
    payload = "a %;x\n%25%3B"
    t = StringTransformation("replace", payload)
    line = serialize_transformation(t)
    assert line == "REPLACE a%20%25%3Bx%0A%2525%253B"
    assert parse_transformation(line) == t
    # escapes decode left to right without overlaps; anything else is literal
    assert parse_transformation("REPLACE %2520%3b%").payload == "%20%3b%"
    assert parse_transformation("CHAR ins@s1=%253B").base_edits[0].payload == "%3B"


def test_parse_round_trip_random_transformations():
    rng = random.Random(34)
    kinds = ["ins", "rep", "del", "upc", "dia"]
    for _ in range(300):
        base, case, dia = [], [], []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(kinds)
            anchor = rng.choice("se")
            index = rng.randint(1, 9)
            if kind == "dia":
                dia.append(CharEdit(kind, anchor, index, rng.choice("čšününá")))
            elif kind == "upc":
                case.append(CharEdit(kind, anchor, index))
            elif kind == "del":
                base.append(CharEdit(kind, anchor, index))
            else:
                base.append(CharEdit(kind, anchor, index, rng.choice(["x", "; ", "%", "ab c"])))
        t = CharTransformation(tuple(base), tuple(case), tuple(dia))
        line = serialize_transformation(t)
        assert parse_transformation(line) == t
        assert serialize_transformation(parse_transformation(line)) == line


# the characters that the line format escapes or that its syntax uses, its
# escapes themselves, a tab and non-ASCII, beside any other character
PAYLOADS = st.lists(
    st.sampled_from(["%", ";", "=", "@", " ", "\n", "\t", "č", "€", "%20", "%25", "%3B", "%0A"])
    | st.characters(),
    min_size=1, max_size=5,
).map("".join)


@st.composite
def rules(draw, grain):
    """A character or string rule whose payloads may hold any character."""
    if grain == "string":
        op = draw(st.sampled_from(["replace", "append", "prepend"]))
        return StringTransformation(op, draw(PAYLOADS))
    edits = {"base": [], "case": [], "dia": []}
    for kind in draw(st.lists(st.sampled_from(["ins", "rep", "del", "upc", "dia"]), max_size=4)):
        payload = "" if kind in ("del", "upc") else draw(PAYLOADS)
        group = {"upc": "case", "dia": "dia"}.get(kind, "base")
        edits[group].append(
            CharEdit(kind, draw(st.sampled_from("se")), draw(st.integers(1, 99)),
                     payload[:1] if kind == "dia" else payload)
        )
    return CharTransformation(*(tuple(edits[group]) for group in ("base", "case", "dia")))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["char", "string"]).flatmap(rules))
def test_serialized_rules_parse_back(rule):
    line = serialize_transformation(rule)
    assert "\n" not in line
    assert parse_transformation(line) == rule


def test_parse_rejects_malformed():
    for bad in ["NOPE", "CHAR xyz", "CHAR ins@s1", "CHAR del@s1=x", "REPLACE"]:
        with pytest.raises(FormatError):
            parse_transformation(bad)


def test_edit_validation():
    with pytest.raises(ValueError):
        CharEdit("ins", "s", 0, "x")
    with pytest.raises(ValueError):
        CharEdit("dia", "s", 1, "ab")
    with pytest.raises(ValueError):
        StringTransformation("replace", "")
