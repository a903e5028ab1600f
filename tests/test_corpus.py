import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gecxform
from gecxform.corpus import (
    NONE_FIELD,
    CorruptionConfig,
    GoldEdit,
    SentencePair,
    corrupt,
    corrupt_corpus,
    load_corpus,
    load_corruption_config,
    parse_m2,
    parse_tsv,
    replay_edits,
    serialize_tsv,
)
from gecxform.errors import FormatError
from gecxform.textnorm import strip_diacritics


def replay_oracle(source, edits):
    # independent splice-based replay over explicit offsets
    tokens = source.split()
    out = []
    consumed = 0
    for e in sorted(edits, key=lambda e: (e.start_token, e.end_token)):
        out.extend(tokens[consumed : e.start_token])
        out.extend(e.correction.split())
        consumed = e.end_token
    out.extend(tokens[consumed:])
    return " ".join(out)


def serialize_m2(pairs):
    """M2 blocks for ``pairs``: the inverse of ``parse_m2`` on well-formed input."""
    blocks = []
    for pair in pairs:
        lines = [f"S {pair.source}"]
        for e in pair.gold_edits:
            correction = e.correction if e.correction else NONE_FIELD
            lines.append(
                f"A {e.start_token} {e.end_token}|||{e.type_tag}|||{correction}"
                f"|||REQUIRED|||{NONE_FIELD}|||{e.annotator}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# --- M2 -----------------------------------------------------------------------


def test_parse_m2_single_edit():
    pairs = parse_m2("S a b c\nA 1 2|||X|||B|||REQUIRED|||-NONE-|||0\n")
    assert len(pairs) == 1
    assert pairs[0].source == "a b c"
    assert pairs[0].gold == "a B c"


def test_parse_m2_block_without_edits():
    pairs = parse_m2("S just fine\n")
    assert pairs[0].gold == pairs[0].source == "just fine"


def test_parse_m2_pure_insertion():
    pairs = parse_m2("S a b\nA 1 1|||M|||x|||REQUIRED|||-NONE-|||0\n")
    assert pairs[0].gold == "a x b"


def test_parse_m2_deletion_via_none():
    pairs = parse_m2("S a b c\nA 1 2|||U|||-NONE-|||REQUIRED|||-NONE-|||0\n")
    assert pairs[0].gold == "a c"


def test_parse_m2_noop_ignored():
    pairs = parse_m2("S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n")
    assert pairs[0].gold == "a b"
    assert pairs[0].gold_edits == ()


def test_parse_m2_selects_annotator():
    text = (
        "S a b\n"
        "A 0 1|||X|||q|||REQUIRED|||-NONE-|||0\n"
        "A 1 2|||X|||z|||REQUIRED|||-NONE-|||1\n"
    )
    assert parse_m2(text, annotator=0)[0].gold == "q b"
    assert parse_m2(text, annotator=1)[0].gold == "a z"


def test_parse_m2_multiple_blocks_and_blank_lines():
    text = "S a\n\nS b\nA 0 1|||X|||c|||REQUIRED|||-NONE-|||0\n\n"
    pairs = parse_m2(text)
    assert [p.gold for p in pairs] == ["a", "c"]


def test_parse_m2_malformed_lines():
    with pytest.raises(FormatError, match="line 1"):
        parse_m2("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_m2("S a\nA 0|||X|||y|||REQUIRED|||-NONE-|||0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_m2("S a\nA 0 1|||X|||y\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_m2("S a\nwhat is this\n")


def test_parse_m2_overlap_rejected():
    text = (
        "S a b c\n"
        "A 0 2|||X|||q|||REQUIRED|||-NONE-|||0\n"
        "A 1 3|||X|||z|||REQUIRED|||-NONE-|||0\n"
    )
    with pytest.raises(FormatError, match="overlap"):
        parse_m2(text)
    # same-gap double insertion is ambiguous
    text = (
        "S a b\n"
        "A 1 1|||X|||q|||REQUIRED|||-NONE-|||0\n"
        "A 1 1|||X|||z|||REQUIRED|||-NONE-|||0\n"
    )
    with pytest.raises(FormatError, match="overlap"):
        parse_m2(text)


def test_replay_matches_oracle_on_fuzz():
    rng = random.Random(41)
    for _ in range(200):
        tokens = [f"w{i}" for i in range(rng.randint(1, 9))]
        edits = []
        cursor = 0
        while cursor < len(tokens):
            if rng.random() < 0.4:
                end = rng.randint(cursor, min(len(tokens), cursor + 2))
                correction = " ".join(f"c{rng.randint(0, 9)}" for _ in range(rng.randint(0, 2)))
                edits.append(GoldEdit(cursor, end, "T", correction, 0))
                cursor = end + 1
            else:
                cursor += 1
        source = " ".join(tokens)
        replayed = " ".join(replay_edits(tokens, edits))
        assert replayed == replay_oracle(source, edits)


def test_m2_round_trip_bit_exact():
    pairs = [
        SentencePair(
            "a b c",
            "a B c",
            (GoldEdit(1, 2, "X", "B", 0), GoldEdit(0, 1, "Y", "", 1)),
        ),
        SentencePair("plain", "plain", ()),
    ]
    text = serialize_m2(pairs)
    assert serialize_m2(parse_m2(text)) == text


# --- TSV ----------------------------------------------------------------------


def test_parse_tsv_examples():
    pairs = parse_tsv("gatherin leafes\tGathering leaves\nx\tx\n")
    assert pairs[0] == SentencePair("gatherin leafes", "Gathering leaves")
    assert pairs[1] == SentencePair("x", "x")


def test_parse_tsv_field_count_error():
    with pytest.raises(FormatError, match="line 1"):
        parse_tsv("a\tb\tc\td\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_tsv("a\tb\nno-tab-here\n")


def test_tsv_round_trip():
    pairs = parse_tsv("a\tb\nc d\te f\n")
    assert parse_tsv(serialize_tsv(pairs)) == pairs


def test_serialize_tsv_refuses_what_parse_tsv_cannot_read_back():
    for source, gold in [("a\tb", "a b"), ("a b", "a\nb"), ("a\rb", "a b")]:
        with pytest.raises(ValueError, match="pair 1: .* tab or a line break"):
            serialize_tsv([SentencePair("x", "x"), SentencePair(source, gold)])


# any character a TSV sentence can hold, mostly the separators of other readers
TSV_TEXT = st.text(
    st.sampled_from(" \x0b\x0c\x1c\x85\u2028|;č") | st.characters(exclude_characters="\t\n\r"),
    max_size=8,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(SentencePair, TSV_TEXT, TSV_TEXT), max_size=4))
def test_tsv_reads_back_as_written(pairs):
    assert parse_tsv(serialize_tsv(pairs)) == pairs


# an M2 token: no whitespace, and no "|" that could end an A-line field
M2_TOKEN = st.text(st.characters(exclude_categories=("Z", "C"), exclude_characters="|"),
                   min_size=1, max_size=4)


@st.composite
def m2_pairs(draw):
    """A pair as an M2 block holds it: source tokens apart by spaces, and the
    disjoint edits of two annotators, insertions and deletions among them."""
    tokens = draw(st.lists(M2_TOKEN, min_size=1, max_size=6))
    pad = st.sampled_from(["", " ", "\x0c"])
    source = draw(pad) + draw(st.sampled_from([" ", "  ", "\xa0"])).join(tokens) + draw(pad)
    edits = []
    for annotator in (0, 1):
        cuts = sorted(draw(st.sets(st.integers(0, len(tokens)), max_size=4)))
        for start, end in zip(cuts[::2], cuts[1::2]):
            if draw(st.booleans()):
                end = start
            correction = " ".join(draw(st.lists(M2_TOKEN, max_size=2)))
            edits.append(GoldEdit(start, end, "T", correction, annotator))
    return SentencePair(source, "", tuple(edits))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(m2_pairs(), min_size=1, max_size=3), st.data())
def test_m2_pairs_written_as_tsv_read_back(pairs, data):
    annotators = sorted({e.annotator for p in pairs for e in p.gold_edits}) or [0]
    read = parse_m2(serialize_m2(pairs), data.draw(st.sampled_from(annotators)))
    assert [(p.source, p.gold) for p in parse_tsv(serialize_tsv(read))] == [
        (p.source, p.gold) for p in read
    ]


def test_load_corpus_dispatches_on_extension(tmp_path):
    m2 = tmp_path / "data.m2"
    m2.write_text("S a b\nA 0 1|||X|||c|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    tsv = tmp_path / "data.tsv"
    tsv.write_text("a\tb\n", encoding="utf-8")
    assert load_corpus(m2)[0].gold == "c b"
    assert load_corpus(tsv)[0].gold == "b"


def test_load_corpus_reads_every_newline_as_open_does(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"a\tb\r\nc\td\re\tf\n")
    assert [(p.source, p.gold) for p in load_corpus(path)] == [("a", "b"), ("c", "d"), ("e", "f")]
    path.write_bytes(b"a\tb\r\nc\td\r\xff\tf\n")
    with pytest.raises(FormatError, match="crlf.tsv: line 3: not UTF-8"):
        load_corpus(path)


def test_input_files_are_read_in_one_function():
    # every reader goes through corpus.load_text, so that each decodes,
    # NFC-normalizes and locates its errors alike; the manifest digests raw bytes
    # and textnorm._strip (behind strip_diacritics) recomposes text
    reads = ("read_text(", "read_bytes(", "open(", 'normalize("NFC"')
    found = set()
    for path in sorted(Path(gecxform.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
        for lineno, line in enumerate(source.splitlines(), 1):
            if any(call in line for call in reads):
                owner = next((d.name for d in defs if d.lineno <= lineno <= d.end_lineno), None)
                found.add((path.name, owner))
    assert found == {
        ("corpus.py", "load_text"), ("cli.py", "_write_output"), ("textnorm.py", "_strip")
    }


# --- corruption ----------------------------------------------------------------


def test_corrupt_all_zero_is_identity():
    config = CorruptionConfig(0, 0, 0, 0, 0, 0, 0)
    pair = corrupt("Kočka leze přes plot", config)
    assert pair.source == pair.gold == "Kočka leze přes plot"


def test_corrupt_strip_diacritics_only():
    config = CorruptionConfig(0, 0, 0, 0, 1.0, 0, 0)
    pair = corrupt("příliš žluťoučký", config)
    assert pair.source == strip_diacritics("příliš žluťoučký") == "prilis zlutoucky"


def test_corrupt_toggle_casing_only():
    config = CorruptionConfig(0, 0, 0, 0, 0, 1.0, 0)
    assert corrupt("Kočka leze", config).source == "kočka Leze"


def test_corrupt_swap_words_only():
    config = CorruptionConfig(0, 0, 0, 0, 0, 0, 1.0)
    assert corrupt("a b c", config).source == "b a c"


def test_corrupt_deterministic():
    config = CorruptionConfig(seed=77)
    a = corrupt("Kočka leze přes plot a ještě dál", config)
    b = corrupt("Kočka leze přes plot a ještě dál", config)
    assert a == b


def test_corrupt_corpus_uses_derived_seeds():
    config = CorruptionConfig(substitute_char=0.5, seed=3)
    golds = ["stejna veta", "stejna veta"]
    pairs = corrupt_corpus(golds, config)
    # same sentence, different per-sentence seeds: outputs may differ but are
    # reproducible
    assert pairs == corrupt_corpus(golds, config)


def test_corrupt_rejects_empty():
    with pytest.raises(ValueError):
        corrupt("  ", CorruptionConfig())


def test_corruption_config_validation():
    with pytest.raises(ValueError):
        CorruptionConfig(substitute_char=1.5)
    with pytest.raises(ValueError):
        CorruptionConfig(alphabet="")


def test_load_corruption_config(tmp_path):
    path = tmp_path / "noise.conf"
    path.write_text(
        "# comment\nsubstitute_char=0.1\nseed=42\nalphabet=abc\n", encoding="utf-8"
    )
    config = load_corruption_config(path)
    assert config.substitute_char == 0.1
    assert config.seed == 42
    assert config.alphabet == "abc"
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense=1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_corruption_config(bad)


def test_neighbor_substitution(tmp_path):
    neighbors = tmp_path / "neighbors.tsv"
    neighbors.write_text("a\tqs\n", encoding="utf-8")
    conf = tmp_path / "noise.conf"
    conf.write_text("substitute_char=1.0\nneighbors_file=neighbors.tsv\n", encoding="utf-8")
    config = load_corruption_config(conf)
    pair = corrupt("aaaa", config)
    assert set(pair.source) <= {"q", "s"}


def test_gold_edit_validation():
    with pytest.raises(ValueError):
        GoldEdit(2, 1, "X", "c", 0)
    with pytest.raises(ValueError):
        GoldEdit(-1, 0, "X", "c", 0)
