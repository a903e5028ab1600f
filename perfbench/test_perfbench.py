"""Tests of the benchmark's own checks, and a quick run of every workload.

Each property check must pass on a well-formed output and fail once that
output is corrupted. Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- alignments -------------------------------------------------------------------


def good_alignment():
    # " Ahoj" matches exactly (1.0), " svete" against " světe," has similarity 5/6.
    gold = "Ahoj světe,"
    subwords = [" Ahoj", " svete"]
    spans = ((0, 5), (5, 12))
    weight = 1.0 + 0.5 * (1 - 1 / 6)
    return subwords, gold, SimpleNamespace(gold=" " + gold, spans=spans, total_weight=weight)


def test_levenshtein_and_weight():
    assert checks.levenshtein("kitten", "sitting") == 3
    assert checks.levenshtein("", "abc") == 3
    assert checks.pair_weight(" Světe", " svete") == 1.0
    assert checks.pair_weight(" ahoj", "ahoj ") == 0.75
    assert checks.pair_weight(" ahoj", " ahoy") == pytest.approx(0.5 * 0.75)


def test_alignment_check_passes_on_good_alignment():
    assert checks.check_alignment(*good_alignment()) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda a: SimpleNamespace(**{**a.__dict__, "total_weight": a.total_weight + 0.01}),
        lambda a: SimpleNamespace(**{**a.__dict__, "spans": ((0, 4), (5, 12))}),
        lambda a: SimpleNamespace(**{**a.__dict__, "spans": ((0, 5), (5, 11))}),
        lambda a: SimpleNamespace(**{**a.__dict__, "spans": ((0, 12),)}),
        lambda a: SimpleNamespace(**{**a.__dict__, "gold": "Ahoj světe,"}),
    ],
    ids=["weight", "gap", "uncovered-tail", "span-count", "no-leading-space"],
)
def test_alignment_check_fails_on_corruption(corrupt):
    subwords, gold, alignment = good_alignment()
    assert checks.check_alignment(subwords, gold, corrupt(alignment))


# --- dictionaries -----------------------------------------------------------------

GOOD_DICT = (
    "mode=char-at-subword casing=uncased min_count=2\n"
    "0\t5\tUNCORRECTABLE\n"
    "1\t90\tKEEP\n"
    "2\t7\tCHAR dia@e1=á\n"
    "3\t2\tCHAR del@e1\n"
)


def test_dictionary_check_passes():
    assert checks.check_dictionary(GOOD_DICT, 2) == []


@pytest.mark.parametrize(
    "old,new",
    [
        ("3\t2\t", "3\t9\t"),                      # counts rise after id 1
        ("3\t2\t", "3\t1\t"),                      # count below min_count
        ("3\t2\t", "4\t2\t"),                      # id gap
        ("0\t5\tUNCORRECTABLE", "0\t5\tKEEP"),     # id 0 is not uncorrectable
        ("CHAR del@e1", "CHAR dia@e1=á"),          # a rule twice
        ("min_count=2", "min_count=3"),            # header disagrees
    ],
)
def test_dictionary_check_fails_on_corruption(old, new):
    assert checks.check_dictionary(GOOD_DICT.replace(old, new), 2)


# --- labels and decoding ----------------------------------------------------------

RULES = {1: lambda u: u, 2: lambda u: u[:-1] + "á"}


def apply_rule(label, unit):
    return RULES[label](unit)


def test_label_check():
    records = [{"units": [" kava", " je"], "labels": [2, 1]}]
    unit_spans = [([" kava", " je"], [" kavá", " je"])]
    assert checks.check_labels_reach_spans(records, unit_spans, apply_rule) == []
    wrong_label = [{"units": [" kava", " je"], "labels": [1, 1]}]
    assert checks.check_labels_reach_spans(wrong_label, unit_spans, apply_rule)
    wrong_units = [{"units": [" kava je"], "labels": [2]}]
    assert checks.check_labels_reach_spans(wrong_units, unit_spans, apply_rule)
    uncorrectable = [{"units": [" kava", " je"], "labels": [0, 1]}]
    assert checks.check_labels_reach_spans(uncorrectable, unit_spans, apply_rule) == []


def test_exact_decode_check():
    records = [{"units": [" kava"], "labels": [2]}]
    assert checks.check_exact_decode(records, ["kavá"], ["kavá"]) == []
    assert checks.check_exact_decode(records, ["kava"], ["kavá"])
    assert checks.check_exact_decode([{"units": [" kava"], "labels": [0]}], ["kavá"], ["kavá"])
    assert checks.check_exact_decode(records, [], ["kavá"])


# --- scores -------------------------------------------------------------------------


def report(tp, fp, fn, p, r, f):
    return f"tp\tfp\tfn\tprecision\trecall\tf0.5\n{tp}\t{fp}\t{fn}\t{p}\t{r}\t{f}\n"


def test_report_check():
    assert checks.check_report(report(4, 0, 0, "1.0000", "1.0000", "1.0000"), {"f0.5": 1.0}) == []
    assert checks.check_report(report(3, 1, 1, "0.7500", "0.7500", "0.7500"), {"f0.5": 1.0})
    assert checks.check_report(report(0, 0, 4, "1.0000", "0.0000", "0.0000"), {"tp": 0.0}) == []
    assert checks.check_report(report(1, 0, 3, "1.0000", "0.2500", "0.6250"), {"tp": 0.0})


def sweep_tsv(edit=None):
    lines = ["mode\tcasing\tmin_count\titerations\tdict_size\tprecision\trecall\tf0.5"]
    for mode in checks.MODES:
        for mc in (1, 2, 3):
            for it in (1, 4):
                size = {1: 40, 2: 12, 3: 7}[mc]
                score = "1.0000" if mc == 1 else "0.6000"
                row = [mode, "uncased", str(mc), str(it), str(size), score, score, score]
                if edit is not None:
                    row = edit(row)
                if row is not None:
                    lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def sweep_problems(tsv):
    return checks.check_sweep(tsv, (1, 2, 3), (1, 4), checks.MODES, word_tokenizer=True)


def test_sweep_check_passes():
    assert sweep_problems(sweep_tsv()) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: None if r[0] == "char-at-word" and r[2] == "3" and r[3] == "4" else r,
        lambda r: r[:7] + ["0.9990"] if r[2] == "1" and r[0] == "string-at-word" else r,
        lambda r: r[:4] + ["99"] + r[5:] if r[2] == "3" and r[0] == "char-at-subword" else r,
        lambda r: r[:5] + ["0.5000"] + r[6:] if r[2] == "2" and r[0] == "string-at-subword" else r,
    ],
    ids=["missing-row", "min-count-1-below-one", "dict-size-grows", "subword-differs-from-word"],
)
def test_sweep_check_fails_on_corruption(edit):
    assert sweep_problems(sweep_tsv(edit))


def test_sweep_exact_modes_limit_the_f05_check():
    tsv = sweep_tsv(lambda r: r[:7] + ["0.8000"] if r[0] == "string-at-subword" and r[2] == "1" else r)
    assert checks.check_sweep(tsv, (1, 2, 3), (1, 4), ("char-at-subword",), word_tokenizer=False) == []


# --- the benchmark end to end -------------------------------------------------------


def run_bench(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("heldout-short", "1"), ("analyze-sweep", "1"), ("long-vocab", "1"), ("heldout-short", "0")],
)
def test_quick_run(tmp_path, workload, trace):
    proc = run_bench(tmp_path, HERE / "run.py", "--workload", workload, "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
        return
    assert (values["transform.fallback_scans"] == 0) == (workload == "long-vocab")
    if workload == "analyze-sweep":
        assert values["evaluate.realign_calls"] > 0
    assert (tmp_path / ".perfbench" / f"{workload}-seed3-trace1-spans.json").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, tmp_path / "perfbench" / "run.py", "--workload", "long-vocab",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
