import gc
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import unicodedata
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gecxform.align as align_module
import gecxform.evaluate as evaluate_module
import gecxform.transform as transform_module
from corpusgen import corrupted_corpus, gold_corpus, uncased_noise_config
from gecxform.align import STORED_LENGTHS, CostTables, _stored_steps
from gecxform.cli import _parse_labels, _unaligned_record, main
from gecxform.corpus import SentencePair, load_corpus, load_text, serialize_tsv
from gecxform.tokenizer import TokenizerMode
from gecxform.transform import ALL_MODES, encode, load_dictionary

FIG_TSV = "gatherin leafes\tGathering leaves\n"
FIG_VOCAB_TEXT = " gathe\nrin\n lea\nfes\n"


@pytest.fixture
def fig_files(tmp_path):
    corpus = tmp_path / "fig.tsv"
    corpus.write_text(FIG_TSV, encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(FIG_VOCAB_TEXT, encoding="utf-8")
    return corpus, vocab


def run(*argv):
    return main([str(a) for a in argv])


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(cwd, *argv):
    """``python -m gecxform`` in a fresh interpreter that imports from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "gecxform", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_module_entry_point_prints_the_version(tmp_path):
    done = run_module(tmp_path, "--version")
    assert done.returncode == 0
    assert done.stdout.strip() == "gecxform 0.1.0"


def test_module_entry_point_exits_2_on_a_missing_corpus(tmp_path):
    done = run_module(tmp_path, "induce", "missing.tsv", "--mode", "char-at-subword", "--out", "x")
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert not (tmp_path / "x").exists()


def test_induce_worked_example(fig_files, tmp_path):
    corpus, vocab = fig_files
    out = tmp_path / "fig.dict"
    code = run(
        "induce", corpus, "--mode", "char-at-subword", "--casing", "uncased",
        "--min-count", "1", "--tokenizer", "vocab", "--vocab", vocab, "--out", out,
    )
    assert code == 0
    dictionary = load_dictionary(out)
    assert dictionary.size == 5
    manifest = json.loads((tmp_path / "fig.dict.manifest.json").read_text())
    assert manifest["command"] == "induce"
    assert set(manifest["inputs"]) == {str(corpus), str(vocab)}
    assert all(len(digest) == 64 for digest in manifest["inputs"].values())


def test_induce_huge_min_count(fig_files, tmp_path):
    corpus, vocab = fig_files
    out = tmp_path / "fig.dict"
    code = run(
        "induce", corpus, "--mode", "char-at-subword", "--min-count", "999999",
        "--tokenizer", "vocab", "--vocab", vocab, "--out", out,
    )
    assert code == 0
    assert load_dictionary(out).size == 2


def test_induce_missing_vocab_file_exits_2(fig_files, tmp_path):
    corpus, _ = fig_files
    code = run(
        "induce", corpus, "--mode", "char-at-subword",
        "--tokenizer", "vocab", "--vocab", tmp_path / "missing.txt",
        "--out", tmp_path / "x.dict",
    )
    assert code == 2


def test_induce_malformed_corpus_exits_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only one field\n", encoding="utf-8")
    code = run(
        "induce", bad, "--mode", "char-at-subword", "--out", tmp_path / "x.dict"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["induce", "--mode", "char-at-word", "--min-count", "0"],
        ["induce", "--mode", "char-at-word", "--synthetic-limit", "-1"],
        ["induce", "--mode", "char-at-word", "--tokenizer", "chars", "--chunk-size", "0"],
        ["analyze", "--min-counts", "2", "0"],
        ["analyze", "--iterations", "0"],
        ["analyze", "--annotator", "-1"],
    ],
    ids=["min-count", "synthetic-limit", "chunk-size", "min-counts", "iterations", "annotator"],
)
def test_out_of_range_number_exits_2(fig_files, tmp_path, capsys, argv):
    corpus, _ = fig_files
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        run(command, corpus, *flags, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# One command line per reader of an input file, named by the file it reads.
READERS = {
    "corpus": "induce {corpus} --mode char-at-word",
    "m2": "induce {m2} --mode char-at-word",
    "dictionary": "encode {corpus} --dict {dictionary}",
    "vocab": "induce {corpus} --mode char-at-subword --tokenizer vocab --vocab {vocab}",
    "labels": "apply {labels} --dict {dictionary}",
    "hypothesis": "evaluate {corpus} --hypothesis {hypothesis}",
    "input": "corrupt {input}",
    "config": "corrupt {input} --config {config}",
    "neighbors": "corrupt {input} --config {config}",
}


@pytest.fixture
def inputs(tmp_path):
    """A valid file for every reader in READERS."""
    paths = {
        "corpus": tmp_path / "c.tsv", "m2": tmp_path / "c.m2", "dictionary": tmp_path / "c.dict",
        "vocab": tmp_path / "vocab.txt", "labels": tmp_path / "c.labels",
        "hypothesis": tmp_path / "hyp.txt", "input": tmp_path / "gold.txt",
        "config": tmp_path / "noise.conf", "neighbors": tmp_path / "neighbors.tsv",
    }
    paths["corpus"].write_text("a b\ta c\n", encoding="utf-8")
    paths["m2"].write_text("S a b\nA 1 2|||R|||c|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    assert run("induce", paths["corpus"], "--mode", "char-at-subword",
               "--out", paths["dictionary"]) == 0
    assert run("encode", paths["corpus"], "--dict", paths["dictionary"],
               "--out", paths["labels"]) == 0
    paths["vocab"].write_text(" a\n b\n c\n", encoding="utf-8")
    paths["hypothesis"].write_text("a c\n", encoding="utf-8")
    paths["input"].write_text("a c\n", encoding="utf-8")
    paths["config"].write_text("seed=1\nneighbors_file=neighbors.tsv\n", encoding="utf-8")
    paths["neighbors"].write_text("a\tq\n", encoding="utf-8")
    return paths


def run_reader(reader, paths, out, capsys):
    """Run the command that reads ``reader``'s file; return its exit code and stderr."""
    capsys.readouterr()
    code = run(*[arg.format(**paths) for arg in READERS[reader].split()], "--out", out)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("reader", list(READERS))
def test_non_utf8_input_exits_2_naming_file_and_line(inputs, tmp_path, capsys, reader):
    assert run_reader(reader, inputs, tmp_path / "good.out", capsys)[0] == 0
    inputs[reader].write_bytes(b"first line\nsecond \xff line\n")
    out = tmp_path / "bad.out"
    code, err = run_reader(reader, inputs, out, capsys)
    assert code == 2
    assert f"{inputs[reader]}: line 2: not UTF-8" in err and "Traceback" not in err
    assert not out.exists()


M2_BLOCK = "S a b\nA {}|||R|||c|||REQUIRED|||-NONE-|||0\n"


@pytest.mark.parametrize(
    "reader, text, where",
    [
        ("m2", M2_BLOCK.format("x 1"), "line 2: malformed A line"),
        ("m2", M2_BLOCK.format("2 1"), "line 2: invalid edit span 2..1"),
        ("m2", M2_BLOCK.format("5 6"), "block at line 1: edit span 5..6 exceeds 2 tokens"),
        ("vocab", "", "empty vocabulary"),
        ("config", "seed=1\nsubstitute_char\n", "line 2: expected key=value"),
        ("config", "nonsense=1\n", "line 1: unknown key 'nonsense'"),
        ("neighbors", "a\tq\nab\tq\n", "line 2: expected char<TAB>neighbors"),
        ("hypothesis", "a c\nextra\n", "2 lines for 1 sentence pairs"),
        # a tab in a gold line or in the alphabet would split the TSV that corrupt
        # writes; lines count before blank lines are dropped
        ("input", "a c\n\nAhoj\tsvete jak se mas\n", "line 3: a gold sentence cannot hold a tab"),
        ("config", "seed=1\nalphabet=ab\tc\n", "line 2: alphabet cannot hold a tab"),
    ],
    ids=["span-not-int", "span-reversed", "span-past-end", "empty-vocab", "config-no-equals",
         "config-unknown-key", "neighbors-line", "hypothesis-length", "gold-tab",
         "alphabet-tab"],
)
def test_bad_input_exits_2_naming_file_and_line(inputs, tmp_path, capsys, reader, text, where):
    inputs[reader].write_text(text, encoding="utf-8")
    out = tmp_path / "bad.out"
    code, err = run_reader(reader, inputs, out, capsys)
    assert code == 2
    assert f"{inputs[reader]}: {where}" in err and "Traceback" not in err
    assert not out.exists()


def test_vocab_tokenizer_without_vocab_exits_2(inputs, tmp_path, capsys):
    out = tmp_path / "x.dict"
    code = run("induce", inputs["corpus"], "--mode", "char-at-subword", "--tokenizer", "vocab",
               "--out", out)
    assert code == 2
    assert "--tokenizer vocab requires --vocab" in capsys.readouterr().err
    assert not out.exists()


M2_TWO_ANNOTATORS = (
    "S a b\nA 0 1|||R|||c|||REQUIRED|||-NONE-|||0\nA 5 6|||R|||d|||REQUIRED|||-NONE-|||1\n"
)


@pytest.mark.parametrize("annotator", ["0", "1"])
def test_m2_span_past_end_fails_whichever_annotator_is_chosen(tmp_path, capsys, annotator):
    corpus = tmp_path / "ann.m2"
    corpus.write_text(M2_TWO_ANNOTATORS, encoding="utf-8")
    out = tmp_path / "x.dict"
    code = run("induce", corpus, "--mode", "char-at-word", "--annotator", annotator, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{corpus}: block at line 1: edit span 5..6 exceeds 2 tokens" in err
    assert "Traceback" not in err and not out.exists()


M2_EDIT = "S He go to school .\nA 1 2|||R:VERB|||went|||REQUIRED|||-NONE-|||0\n"
M2_NOOP = "S He went to school .\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
M2_BARE = "S He went to school .\n"


@pytest.mark.parametrize("text", [M2_EDIT, M2_NOOP], ids=["edit", "noop"])
def test_absent_annotator_exits_2_naming_the_file(tmp_path, capsys, text):
    corpus = tmp_path / "a.m2"
    corpus.write_text(text, encoding="utf-8")
    out = tmp_path / "x.dict"
    code = run("induce", corpus, "--mode", "char-at-word", "--annotator", "1", "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert str(corpus) in err and "annotator 1" in err
    assert not out.exists()
    # a file without A lines has no annotator to miss
    corpus.write_text(M2_BARE, encoding="utf-8")
    assert run("induce", corpus, "--mode", "char-at-word", "--annotator", "1", "--out", out) == 0


def test_encode_apply_pipeline(fig_files, tmp_path):
    corpus, vocab = fig_files
    dict_path = tmp_path / "fig.dict"
    run(
        "induce", corpus, "--mode", "char-at-subword", "--tokenizer", "vocab",
        "--vocab", vocab, "--out", dict_path,
    )
    labels = tmp_path / "fig.labels"
    code = run(
        "encode", corpus, "--dict", dict_path, "--tokenizer", "vocab",
        "--vocab", vocab, "--out", labels,
    )
    assert code == 0
    record = json.loads(labels.read_text().strip())
    assert record["units"] == [" gathe", "rin", " lea", "fes"]
    assert 0 not in record["labels"]

    corrected = tmp_path / "fig.out"
    code = run("apply", labels, "--dict", dict_path, "--out", corrected)
    assert code == 0
    assert corrected.read_text() == "Gathering leaves\n"


@pytest.mark.parametrize(
    "record",
    [
        '[" a", 1]',
        '{"units": [" a", " b"], "labels": [1, "x"]}',
        '{"units": [" a", " b"], "labels": [1, 99]}',
        '{"units": [" a", 7], "labels": [1, 1]}',
    ],
    ids=["list-record", "non-integer-label", "out-of-range-id", "non-string-unit"],
)
def test_apply_bad_label_record_exits_2(tmp_path, capsys, record):
    corpus = tmp_path / "id.tsv"
    corpus.write_text("a b\ta b\n", encoding="utf-8")
    dict_path = tmp_path / "id.dict"
    run("induce", corpus, "--mode", "char-at-subword", "--out", dict_path)
    labels = tmp_path / "bad.labels"
    labels.write_text('{"units": [" a"], "labels": [1]}\n' + record + "\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = run("apply", labels, "--dict", dict_path, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{labels}: line 2:" in err and "Traceback" not in err
    assert not out.exists()


def test_malformed_dictionary_exits_2_naming_the_file(tmp_path, capsys):
    corpus = tmp_path / "id.tsv"
    corpus.write_text("a b\ta b\n", encoding="utf-8")
    dict_path = tmp_path / "bad.dict"
    run("induce", corpus, "--mode", "char-at-subword", "--out", dict_path)
    with dict_path.open("a", encoding="utf-8") as handle:
        handle.write("2\t1\tCHAR zz@s1\n")
    out = tmp_path / "out.labels"
    assert run("encode", corpus, "--dict", dict_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{dict_path}: line 4:" in err and "Traceback" not in err
    assert not out.exists()


RESERVED = "0\t0\tUNCORRECTABLE\n1\t0\tKEEP\n"
CHAR_HEADER = "mode=char-at-subword casing=uncased min_count=1\n"


@pytest.mark.parametrize(
    "text, where",
    [
        ("mode=string-at-word casing=uncased min_count=1\n" + RESERVED + "2\t5\tCHAR del@e1\n",
         "line 4: 'CHAR del@e1' is not a string rule"),
        (CHAR_HEADER + RESERVED + "2\t5\tREPLACE %20dog\n",
         "line 4: 'REPLACE %20dog' is not a char rule"),
        (CHAR_HEADER + "0\t0\tUNCORRECTABLE\n1\t0\tCHAR del@e1\n", "line 3: entry 1 must be keep"),
        (CHAR_HEADER + RESERVED + "3\t1\tCHAR del@e1\n", "line 4: entry ids must be dense"),
        (CHAR_HEADER + RESERVED + "2\t2\tCHAR del@e1\n3\t1\tCHAR del@e1\n",
         "line 5: dictionary entries must be unique"),
    ],
    ids=["char-rule-in-string-dict", "string-rule-in-char-dict", "entry-1-not-keep",
         "ids-not-dense", "duplicate-entry"],
)
def test_inconsistent_dictionary_exits_2_naming_the_file(tmp_path, capsys, text, where):
    corpus = tmp_path / "cats.tsv"
    corpus.write_text("cats sat\tcat sat\n", encoding="utf-8")
    dict_path = tmp_path / "bad.dict"
    dict_path.write_text(text, encoding="utf-8")
    out = tmp_path / "cats.labels"
    assert run("encode", corpus, "--dict", dict_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{dict_path}: {where}" in err and "Traceback" not in err
    assert not out.exists()


TWO_DELETIONS_DICT = (
    "mode=char-at-subword casing=uncased min_count=1\n"
    "0\t0\tUNCORRECTABLE\n1\t0\tKEEP\n2\t1\tCHAR del@e1\n3\t1\tCHAR del@e2\n"
)


def test_encode_labels_equal_pairs_alike(tmp_path):
    # both deletions rewrite " aa" into " a"; the label must not depend on the line
    corpus = tmp_path / "aa.tsv"
    corpus.write_text("aa\ta\n" * 8, encoding="utf-8")
    dict_path = tmp_path / "del.dict"
    dict_path.write_text(TWO_DELETIONS_DICT, encoding="utf-8")
    labels = tmp_path / "aa.labels"
    assert run("encode", corpus, "--dict", dict_path, "--out", labels) == 0
    records = labels.read_text(encoding="utf-8").splitlines()
    assert len(records) == 8 and len(set(records)) == 1
    assert json.loads(records[0])["labels"] == [2]


def test_encode_has_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("encode", "c.tsv", "--dict", "d.dict", "--seed", "1", "--out", tmp_path / "x")
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, where",
    [
        (TWO_DELETIONS_DICT.replace("min_count=1", "min_count=-4"), "min_count must be >= 1"),
        (TWO_DELETIONS_DICT.replace("3\t1\t", "3\t-3\t"), "line 5: count must be >= 0"),
    ],
    ids=["min-count", "entry-count"],
)
def test_negative_dictionary_numbers_exit_2(tmp_path, capsys, text, where):
    corpus = tmp_path / "aa.tsv"
    corpus.write_text("aa\ta\n", encoding="utf-8")
    dict_path = tmp_path / "bad.dict"
    dict_path.write_text(text, encoding="utf-8")
    out = tmp_path / "aa.labels"
    assert run("encode", corpus, "--dict", dict_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{dict_path}: {where}" in err and "Traceback" not in err
    assert not out.exists()


def test_encode_labels_unalignable_pairs_uncorrectable(tmp_path, capsys, caplog):
    # an empty source and a whitespace-only gold: induce and analyze skip
    # these pairs; encode keeps each as its source so the files stay aligned
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a b\ta b\n \tfoo\nfoo\t \n", encoding="utf-8")
    dict_path = tmp_path / "c.dict"
    assert run("induce", corpus, "--mode", "char-at-word", "--out", dict_path) == 0
    labels = tmp_path / "c.labels"
    caplog.clear()
    capsys.readouterr()
    assert run("encode", corpus, "--dict", dict_path, "--out", labels) == 0
    assert "2 skipped pairs" in capsys.readouterr().out
    assert len([r for r in caplog.records if "skipping pair" in r.getMessage()]) == 2
    records = [json.loads(line) for line in labels.read_text().splitlines()]
    assert [(r["units"], r["labels"]) for r in records] == [
        ([" a", " b"], [1, 1]), ([], []), ([" foo"], [0])
    ]
    decoded = tmp_path / "c.out"
    assert run("apply", labels, "--dict", dict_path, "--out", decoded) == 0
    assert decoded.read_text() == "a b\n\nfoo\n"
    assert run("evaluate", corpus, "--hypothesis", decoded) == 0


# sentences with what JSON escapes and what other line readers split at
LABEL_TEXT = st.text(st.sampled_from('aáčAb .,"\\\x0c\x85\u2028'), max_size=12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.builds(SentencePair, LABEL_TEXT, LABEL_TEXT), min_size=1, max_size=4),
    st.sampled_from([mode.label for mode in ALL_MODES]),
    st.sampled_from(["cased", "uncased"]),
    st.sampled_from([TokenizerMode.word(), TokenizerMode.char_chunks(2)]),
)
def test_encode_writes_the_records_that_encode_returns(pairs, mode, casing, tokenizer):
    flags = ["--tokenizer", tokenizer.kind, "--chunk-size", tokenizer.chunk_size]
    with tempfile.TemporaryDirectory() as tmp:
        corpus, dict_path, labels = (Path(tmp) / name for name in ("c.tsv", "c.dict", "c.labels"))
        corpus.write_text(serialize_tsv(pairs), encoding="utf-8")
        assert run("induce", corpus, "--mode", mode, "--casing", casing, *flags,
                   "--out", dict_path) == 0
        assert run("encode", corpus, "--dict", dict_path, *flags, "--out", labels) == 0
        dictionary = load_dictionary(dict_path)
        records = load_text(labels, _parse_labels, dictionary.size)
        loaded = load_corpus(corpus)
    expected = []
    for pair in loaded:
        try:
            expected.append(encode(pair.source, pair.gold, dictionary, tokenizer))
        except ValueError:
            expected.append(_unaligned_record(pair.source, dictionary, tokenizer))
    assert records == expected


def test_a_pair_with_a_long_token_is_skipped(tmp_path):
    # one 1000-letter token against about 4000 gold characters: its lanes and
    # cost table are priced, so the pair is refused before they are built
    rng = random.Random(6)
    token = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(1000))
    gold = " ".join(gold_corpus(1, 4, min_words=700, max_words=700)[0].split())[:3990]
    (tmp_path / "c.tsv").write_text(f"{token}\t{gold}\na b\ta bb\n", encoding="utf-8")
    done = run_module(tmp_path, "induce", "c.tsv", "--mode", "char-at-word", "--out", "c.dict")
    assert done.returncode == 0, done.stderr
    skips = [line for line in done.stderr.splitlines() if "skipping pair" in line]
    assert len(skips) == 1 and "pair too large" in skips[0]
    assert done.stdout == "induced 3 transformations -> c.dict\n"


def test_a_hostile_pair_is_skipped_in_bounded_time(tmp_path, capsys, caplog):
    # five one-letter words against 2000 letters: only the unbounded retry
    # covers the gold, which would price 5 * 2001 ** 2 spans and take seconds
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a b\ta bb\na b c d e\t" + "x" * 2000 + "\n", encoding="utf-8")
    dict_path, labels, rows = tmp_path / "c.dict", tmp_path / "c.labels", tmp_path / "rows.tsv"
    start = time.perf_counter()
    assert run("induce", corpus, "--mode", "char-at-word", "--out", dict_path) == 0
    assert run("encode", corpus, "--dict", dict_path, "--out", labels) == 0
    assert run("analyze", corpus, "--min-counts", "1", "--iterations", "1", "--out", rows) == 0
    assert time.perf_counter() - start < 1.5
    skips = [r.getMessage() for r in caplog.records if "skipping pair" in r.getMessage()]
    assert len(skips) == 3 and all("pair too large" in s for s in skips)
    assert "1 skipped pairs" in capsys.readouterr().out
    assert [json.loads(line)["labels"] for line in labels.read_text().splitlines()] == [
        [1, 2], [0] * 5
    ]


def spy_cost_tables(monkeypatch, keep):
    """Patch ``transform.align`` to append ``keep(cost_tables)`` of each call to a list."""
    seen = []
    original = transform_module.align

    def spying(subwords, gold, cost_tables=None):
        seen.append(keep(cost_tables))
        return original(subwords, gold, cost_tables)

    monkeypatch.setattr(transform_module, "align", spying)
    return seen


def holds_cost_rows(value):
    """Whether ``value`` is a cost table, or a dict of lists of rows like one."""
    if isinstance(value, CostTables):
        return True
    return isinstance(value, dict) and any(
        isinstance(v, list) and any(isinstance(row, list) for row in v) for v in value.values()
    )


def test_cost_tables_live_for_one_command(tmp_path, monkeypatch):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(serialize_tsv(corrupted_corpus(6, 3, uncased_noise_config(3))))
    dict_path, labels, rows = tmp_path / "c.dict", tmp_path / "c.labels", tmp_path / "rows.tsv"
    commands = [
        ["induce", corpus, "--mode", "char-at-subword", "--out", dict_path],
        ["encode", corpus, "--dict", dict_path, "--out", labels],
        ["analyze", corpus, "--min-counts", "1", "--iterations", "2", "--out", rows],
    ]
    seen = spy_cost_tables(monkeypatch, lambda t: t is not None and (id(t), weakref.ref(t)))
    refs = []
    for argv in commands * 2:
        del seen[:]
        assert run(*argv) == 0
        # every alignment of the command read one set of tables, its own
        assert seen and all(seen) and len({ident for ident, _ in seen}) == 1
        refs.append(seen[0][1])
    del seen[:]
    gc.collect()
    assert all(ref() is None for ref in refs)
    for module in (align_module, transform_module, evaluate_module):
        for name, value in vars(module).items():
            assert not holds_cost_rows(value), f"{module.__name__}.{name}"


def test_cost_tables_stay_bounded_on_tokens_of_new_lengths(tmp_path, monkeypatch):
    # every pair carries one token of a length that no earlier pair had, and
    # the first one covers its gold only in the unbounded retry
    rng = random.Random(5)
    lines = ["a b\t" + "x" * 40 + "\n"]
    for n in range(10, 70):
        token = "".join(rng.choice("abcdeklmnorstu") for _ in range(n))
        lines.append(f"kocka {token[:3]}x{token[4:]} leze\tkočka {token} leze\n")
    corpus = tmp_path / "c.tsv"
    corpus.write_text("".join(lines), encoding="utf-8")
    seen = spy_cost_tables(monkeypatch, lambda t: t)
    assert run("induce", corpus, "--mode", "char-at-subword", "--out", tmp_path / "c.dict") == 0
    [tables] = {id(t): t for t in seen}.values()
    bound = sum(_stored_steps(ls) * (ls + 1) for ls in range(STORED_LENGTHS))
    assert bound == 38_544  # the bound that CostTables documents
    floats = sum(len(row) for rows in tables.values() for row in rows)
    # each length below the bound keeps its rows up to its span bound, no more
    assert floats == sum(_stored_steps(ls) * (ls + 1) for ls in tables) <= bound
    assert sorted(tables) == [1, 4, 5, *range(10, STORED_LENGTHS)]


@pytest.mark.parametrize("command", ["induce", "encode", "evaluate", "analyze"])
def test_empty_corpus_exits_2_naming_the_files(fig_files, tmp_path, capsys, command):
    corpus, _ = fig_files
    dict_path = tmp_path / "fig.dict"
    assert run("induce", corpus, "--mode", "char-at-word", "--out", dict_path) == 0
    empty, also_empty = tmp_path / "empty.tsv", tmp_path / "also-empty.tsv"
    empty.write_text("", encoding="utf-8")
    also_empty.write_text("", encoding="utf-8")
    hypothesis = tmp_path / "hyp.txt"
    hypothesis.write_text("", encoding="utf-8")
    flags = {
        "induce": ["--mode", "char-at-word"],
        "encode": ["--dict", dict_path],
        "evaluate": ["--hypothesis", hypothesis],
        "analyze": [],
    }[command]
    out = tmp_path / "out"
    assert run(command, empty, also_empty, *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert str(empty) in err and str(also_empty) in err and "Traceback" not in err
    assert not out.exists()


def test_encode_mode_mismatch_exits_2(fig_files, tmp_path):
    corpus, vocab = fig_files
    dict_path = tmp_path / "fig.dict"
    run(
        "induce", corpus, "--mode", "char-at-subword", "--tokenizer", "vocab",
        "--vocab", vocab, "--out", dict_path,
    )
    code = run(
        "encode", corpus, "--dict", dict_path, "--mode", "string-at-word",
        "--out", tmp_path / "x.labels",
    )
    assert code == 2


def test_identity_corpus_encodes_to_keep_only(tmp_path):
    corpus = tmp_path / "id.tsv"
    corpus.write_text("beze chyby\tbeze chyby\nuplne cisto\tuplne cisto\n", encoding="utf-8")
    dict_path = tmp_path / "id.dict"
    run("induce", corpus, "--mode", "string-at-word", "--out", dict_path)
    labels = tmp_path / "id.labels"
    run("encode", corpus, "--dict", dict_path, "--out", labels)
    for line in labels.read_text().splitlines():
        record = json.loads(line)
        assert all(label == 1 for label in record["labels"])


def test_apply_all_keep_reproduces_source(tmp_path):
    corpus = tmp_path / "id.tsv"
    corpus.write_text("jedna veta\tjedna veta\n", encoding="utf-8")
    dict_path = tmp_path / "id.dict"
    run("induce", corpus, "--mode", "char-at-subword", "--out", dict_path)
    labels = tmp_path / "id.labels"
    run("encode", corpus, "--dict", dict_path, "--out", labels)
    out = tmp_path / "id.out"
    run("apply", labels, "--dict", dict_path, "--out", out)
    assert out.read_text() == "jedna veta\n"


def test_evaluate_command(tmp_path, capsys):
    corpus = tmp_path / "eval.tsv"
    corpus.write_text("a b\ta c\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a c\n", encoding="utf-8")
    code = run("evaluate", corpus, "--hypothesis", hyp)
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["tp", "fp", "fn", "precision", "recall", "f0.5"]
    assert lines[1].split("\t") == ["1", "0", "0", "1.0000", "1.0000", "1.0000"]


def test_evaluate_length_mismatch_exits_2(tmp_path):
    corpus = tmp_path / "eval.tsv"
    corpus.write_text("a b\ta c\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a c\nextra\n", encoding="utf-8")
    assert run("evaluate", corpus, "--hypothesis", hyp) == 2


@pytest.mark.parametrize("brk", ["\x85", "\x0c", "\u2028"], ids=["nel", "ff", "ls"])
def test_evaluate_splits_hypothesis_lines_as_the_corpus(tmp_path, capsys, brk):
    # a sentence may hold a line break other than "\n"; the gold text repeated
    # as the hypothesis must read as one line per pair
    corpus = tmp_path / "eval.tsv"
    corpus.write_text(f"a b\ta c\nd e\td{brk}e\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"a c\nd{brk}e\n", encoding="utf-8")
    assert run("evaluate", corpus, "--hypothesis", hyp) == 0
    assert capsys.readouterr().out.split("\n")[1].split("\t")[:3] == ["1", "0", "0"]


def test_corrupt_splits_gold_lines_as_the_corpus(tmp_path, capsys):
    # "\x0c" inside a sentence is no line break, as for every other reader
    golds = tmp_path / "gold.txt"
    golds.write_text("a\x0cb c\nd e\n", encoding="utf-8")
    out = tmp_path / "pairs.tsv"
    assert run("corrupt", golds, "--seed", "1", "--out", out) == 0
    assert "corrupted 2 sentences" in capsys.readouterr().out
    assert [line.split("\t")[1] for line in out.read_text(encoding="utf-8").split("\n")[:-1]] == [
        "a\x0cb c", "d e"
    ]


def test_corrupt_deterministic_and_analyze_grid(tmp_path):
    golds = tmp_path / "gold.txt"
    golds.write_text(
        "\n".join(f"Kočka číslo {i} leze přes vysoký plot" for i in range(30)) + "\n",
        encoding="utf-8",
    )
    conf = tmp_path / "noise.conf"
    conf.write_text("strip_word_diacritics=0.4\ntoggle_word_casing=0.2\n", encoding="utf-8")

    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    assert run("corrupt", golds, "--config", conf, "--seed", "5", "--out", first) == 0
    assert run("corrupt", golds, "--config", conf, "--seed", "5", "--out", second) == 0
    assert first.read_text() == second.read_text()

    analysis = tmp_path / "rows.tsv"
    code = run(
        "analyze", first, "--casing", "uncased", "--tokenizer", "chars",
        "--chunk-size", "3", "--out", analysis,
    )
    assert code == 0
    lines = analysis.read_text().strip().split("\n")
    assert len(lines) == 25  # header + 4 modes x 3 thresholds x 2 iteration settings
    assert lines[0].startswith("mode\tcasing\tmin_count\titerations")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suffix", [".tsv", ".m2"])
def test_decomposed_input_scores_as_composed(tmp_path, suffix):
    # ё in NFD is е + U+0308; uncased, the mark would stay in the gold spans
    source, gold = "ежик пошел", "ёжик пошёл"
    if suffix == ".tsv":
        text = f"{source}\t{gold}\n"
    else:
        text = f"S {source}\n" + "".join(
            f"A {k} {k + 1}|||OTHER|||{word}|||REQUIRED|||-NONE-|||0\n"
            for k, word in enumerate(gold.split())
        )
    rows = {}
    for form in ("NFC", "NFD"):
        corpus = tmp_path / f"{form}{suffix}"
        corpus.write_text(unicodedata.normalize(form, text), encoding="utf-8")
        out = tmp_path / f"{form}.rows.tsv"
        code = run(
            "analyze", corpus, "--casing", "uncased", "--min-counts", "1",
            "--iterations", "1", "--out", out,
        )
        assert code == 0
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        f_half = header.split("\t").index("f0.5")
        rows[form] = [line.split("\t")[f_half] for line in lines]
    assert rows["NFC"] == ["1.0000"] * 4
    assert rows["NFD"] == rows["NFC"]


def test_evaluate_reads_decomposed_hypothesis_as_composed(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("ежик пошел\tёжик пошёл\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(unicodedata.normalize("NFD", "ёжик пошёл\n"), encoding="utf-8")
    out = tmp_path / "report.tsv"
    assert run("evaluate", corpus, "--hypothesis", hyp, "--out", out) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].endswith("\t1.0000")
