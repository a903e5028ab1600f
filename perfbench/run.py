#!/usr/bin/env python3
"""Benchmark of the gecxform pipeline: induce, held-out encode and the oracle sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heldout-short --seed 1 --seconds 25 --trace 0

Every workload generates its corpora from ``--seed`` with ``tests/corpusgen.py``
and the corpus layer, then repeats rounds of three timed CLI commands
(``induce``, ``encode``, ``analyze``), each followed by untimed ``apply`` and
``evaluate`` commands, through ``gecxform.cli.main`` in this process until
``--seconds`` have passed. A fixed pure-Python probe runs before every timed
step, and the run's medians are rescaled by the probe's mean time, because
this machine's speed changes by up to 1.5x within minutes. The outputs are
then checked against properties of the method (``checks.py``).
``--trace 1`` wraps the layer functions (``tracing.py``) and reports per-layer
metrics instead. ``--quick`` runs one small round, to check that the
benchmark itself works. See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Files go to
``.perfbench/`` under the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

OUT_DIR = Path(".perfbench")
SETUPS_PER_ROUND = 3
EXIT_ERROR = 2
TIMED = ("induce", "encode", "analyze")

# The probe: many short Levenshtein distances, as in alignment, on fixed words
# of 2-4 letters. PROBE_REF_S only sets the unit: scaled times are times on a
# machine where the probe takes PROBE_REF_S (here it takes 0.05-0.12 s).
_probe_rng = random.Random(0)
PROBE_WORDS = ["".join(_probe_rng.choice("abcdefghij") for _ in range(_probe_rng.randint(2, 4)))
               for _ in range(560)]
PROBE_REF_S = 0.1


@dataclass(frozen=True)
class Workload:
    """Corpora and the flags of the three timed commands.

    The training corpus has one pair per entry of ``lengths`` (in words) and
    feeds ``induce``. ``encode`` labels the test corpus: a second corpus of
    the same lengths from another seed if ``held_out`` is set, else the
    training corpus. ``analyze`` sweeps the first ``sweep`` test pairs; its
    min_count 1 rows must reach F0.5 = 1 for ``exact_modes``.
    """

    casing: str
    tokenizer: str
    min_count: int
    lengths: tuple[int, ...]
    held_out: bool
    sweep: int
    min_counts: tuple[int, ...] = (1, 2, 3)
    iterations: tuple[int, ...] = (1, 4)
    exact_modes: tuple[str, ...] = checks.MODES

    @property
    def analyze_flags(self) -> list[str]:
        return ["--min-counts", *map(str, self.min_counts),
                "--iterations", *map(str, self.iterations)]


def short_lengths(n: int) -> tuple[int, ...]:
    return tuple(12 + i % 5 for i in range(n))


WORKLOADS = {
    # Everyday data preparation: rules induced on one corpus, a second corpus
    # encoded with them, so many units miss the direct lookup and fall back to
    # scanning the dictionary.
    "heldout-short": Workload(
        casing="uncased", tokenizer="word", min_count=2, lengths=short_lengths(12),
        held_out=True, sweep=2,
    ),
    # The default 24-row oracle sweep: thresholding, oracle encoding over
    # cached alignments, score passes and the re-alignment of rounds 2 to 4.
    "analyze-sweep": Workload(
        casing="uncased", tokenizer="word", min_count=2, lengths=short_lengths(4),
        held_out=False, sweep=4,
    ),
    # Long cased sentences under the vocab tokenizer, encoded in-sample at
    # min_count 1: alignment dominates and every unit hits the dictionary
    # directly. The sweep keeps min_count 1 and one iteration, as the default
    # sweep of a 150-word pair takes minutes, and its later thresholds and
    # rounds would scan the dictionary. A string rule cannot erase a unit, and
    # vocab pieces often align to nothing, so only the char-at-subword rows
    # must reach F0.5 = 1.
    "long-vocab": Workload(
        casing="cased", tokenizer="vocab", min_count=1, lengths=(40, 80),
        held_out=False, sweep=1, min_counts=(1,), iterations=(1,),
        exact_modes=("char-at-subword",),
    ),
}

QUICK = {
    "heldout-short": dict(lengths=short_lengths(5), sweep=1),
    "analyze-sweep": dict(lengths=short_lengths(2), sweep=2),
    "long-vocab": dict(lengths=(40,)),
}


FILES = {
    "train": "train.tsv",
    "test": "test.tsv",
    "sweep": "sweep.tsv",
    "gold": "gold.txt",
    "source": "source.txt",
    "vocab": "vocab.txt",
    "dict": "dict.txt",
    "labels": "labels.jsonl",
    "rows": "sweep_rows.tsv",
    "decoded": "decoded.txt",
    "report_decoded": "report_decoded.tsv",
    "report_gold": "report_gold.tsv",
    "report_source": "report_source.tsv",
}
OUTPUTS = ("dict", "labels", "rows", "decoded", "report_decoded", "report_gold", "report_source")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- inputs ---------------------------------------------------------------------


def load_corpusgen():
    path = ROOT / "tests" / "corpusgen.py"
    spec = importlib.util.spec_from_file_location("corpusgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def purge_gecxform() -> None:
    for name in [n for n in sys.modules if n == "gecxform" or n.startswith("gecxform.")]:
        del sys.modules[name]


def vocab_pieces(cg) -> list[str]:
    """Syllables and suffixes of corpusgen, word-initial (also capitalized) and inner."""
    bodies = [o + v for o in cg.ONSETS for v in cg.VOWELS] + list(cg.SUFFIXES)
    pieces = set(bodies)
    pieces.update(" " + b for b in bodies)
    pieces.update(" " + b.capitalize() for b in bodies)
    return sorted(pieces)


def gold_sentence(cg, rng: random.Random, n_words: int) -> str:
    """A corpusgen-style sentence whose length in characters is fixed by ``n_words``.

    Word ``i`` has ``1 + i % 3`` syllables and a suffix of the ``(i // 3) % 3``-th
    suffix length; the seed picks the letters and the suffix. corpusgen's own
    sentences vary so much in length that the alignment cost of 12 of them
    differs by 12% (quartile spread) from seed to seed.
    """
    by_length = sorted({len(x) for x in cg.SUFFIXES})
    words = []
    for i in range(n_words):
        stem = "".join(rng.choice(cg.ONSETS) + rng.choice(cg.VOWELS) for _ in range(1 + i % 3))
        size = by_length[(i // 3) % len(by_length)]
        words.append(stem + rng.choice([x for x in cg.SUFFIXES if len(x) == size]))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def make_inputs(wl: Workload, seed: int, work: Path) -> dict:
    """Import gecxform, generate the corpora from ``seed`` and write them under ``work``."""
    purge_gecxform()
    cli = importlib.import_module("gecxform.cli")
    corpus = importlib.import_module("gecxform.corpus")
    cg = load_corpusgen()

    noise = cg.uncased_noise_config if wl.casing == "uncased" else cg.cased_noise_config

    def corpus_from(corpus_seed: int):
        rng = random.Random(corpus_seed)
        golds = [gold_sentence(cg, rng, n) for n in wl.lengths]
        return corpus.corrupt_corpus(golds, noise(corpus_seed))

    train = corpus_from(2 * seed)
    test = corpus_from(2 * seed + 1) if wl.held_out else train
    files = {name: work / filename for name, filename in FILES.items()}
    files["train"].write_text(corpus.serialize_tsv(train), encoding="utf-8")
    files["test"].write_text(corpus.serialize_tsv(test), encoding="utf-8")
    files["sweep"].write_text(corpus.serialize_tsv(test[: wl.sweep]), encoding="utf-8")
    files["gold"].write_text("".join(p.gold + "\n" for p in test), encoding="utf-8")
    files["source"].write_text("".join(p.source + "\n" for p in test), encoding="utf-8")
    if wl.tokenizer == "vocab":
        files["vocab"].write_text("\n".join(vocab_pieces(cg)) + "\n", encoding="utf-8")
    return {"cli": cli, "files": files, "train": train, "test": test}


def probe() -> float:
    """Wall time of the fixed probe workload: the machine's speed right now."""
    t0 = time.perf_counter()
    for word in PROBE_WORDS:
        for other in PROBE_WORDS[:25]:
            checks.levenshtein(word, other)
    return time.perf_counter() - t0


def probed(fn) -> tuple[object, float, float]:
    """Run the probe, then ``fn``; returns fn's result, its wall time and the probe's."""
    probe_s = probe()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, probe_s


# --- commands ---------------------------------------------------------------------


def tokenizer_flags(wl: Workload, files: dict) -> list[str]:
    flags = ["--tokenizer", wl.tokenizer]
    if wl.tokenizer == "vocab":
        flags += ["--vocab", str(files["vocab"])]
    return flags


def round_commands(wl: Workload, files: dict) -> list[tuple[str, list[str]]]:
    """One round: the three timed commands, then decoding and scoring."""
    tok = tokenizer_flags(wl, files)
    out = {name: str(path) for name, path in files.items()}
    return [
        ("induce", ["induce", out["train"], "--mode", "char-at-subword", "--casing", wl.casing,
                    "--min-count", str(wl.min_count), "--out", out["dict"], *tok]),
        ("encode", ["encode", out["test"], "--dict", out["dict"], "--out", out["labels"], *tok]),
        ("analyze", ["analyze", out["sweep"], "--casing", wl.casing, "--out", out["rows"],
                     *wl.analyze_flags, *tok]),
        ("apply", ["apply", out["labels"], "--dict", out["dict"], "--out", out["decoded"]]),
        *(
            (f"evaluate_{hyp}", ["evaluate", out["test"], "--hypothesis", out[hyp],
                                 "--out", out[f"report_{hyp}"]])
            for hyp in ("decoded", "gold", "source")
        ),
    ]


def run_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_rounds(wl: Workload, seed: int, work: Path, seconds: float, quick: bool, tracer):
    """Set up, then repeat whole rounds for about ``seconds``.

    Set-up is timed before the first round and, in an untraced run,
    ``SETUPS_PER_ROUND`` more times after each round, so that its samples
    spread over the run as those of the commands do. A traced run sets up
    once, as the tracer wraps the modules of one import.
    """
    inputs, setup_s, probe_s = probed(lambda: make_inputs(wl, seed, work))
    setups = [(setup_s, probe_s)]
    outputs = [inputs["files"][name] for name in OUTPUTS]
    rounds = []
    failed = 0
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        while True:
            if tracer is not None:
                tracer.capture_alignments = not rounds
                before = tracer.snapshot()
            times, probes = {}, {}
            for name, argv in round_commands(wl, inputs["files"]):
                if name in TIMED:
                    code, times[name], probes[name] = probed(lambda: run_cli(inputs["cli"], argv))
                    if name == TIMED[-1]:
                        probes["after"] = probe()
                else:
                    t0 = time.perf_counter()
                    code = run_cli(inputs["cli"], argv)
                    times[name] = time.perf_counter() - t0
                failed += code != 0
            record = {"times": times, "probes": probes, "digest": digest(outputs)}
            if tracer is not None:
                record["layers"] = layer_metrics(before, tracer.snapshot())
            rounds.append(record)
            elapsed = time.perf_counter() - start
            if quick or elapsed + 0.5 * elapsed / len(rounds) >= seconds:
                break
            if tracer is None:
                for _ in range(SETUPS_PER_ROUND):
                    inputs, setup_s, probe_s = probed(lambda: make_inputs(wl, seed, work))
                    setups.append((setup_s, probe_s))
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted = len(rounds) * len(times)
    return inputs, setups, rounds, attempted, failed


# --- checks -----------------------------------------------------------------------


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def check_outputs(wl: Workload, inputs: dict, rounds, tracer) -> list[str]:
    """Properties of the last round's outputs, and agreement between rounds."""
    files, test = inputs["files"], inputs["test"]
    if any(not files[name].exists() for name in OUTPUTS):
        return ["a command wrote no output"]
    problems = []
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds wrote different outputs from the same inputs")
    problems += checks.check_dictionary(read(files["dict"]), wl.min_count)
    problems += checks.check_report(read(files["report_gold"]), {"f0.5": 1.0})
    problems += checks.check_report(read(files["report_source"]), {"tp": 0.0})
    problems += checks.check_sweep(
        read(files["rows"]), wl.min_counts, wl.iterations, exact_modes=wl.exact_modes,
        word_tokenizer=wl.tokenizer == "word",
    )
    records = [json.loads(line) for line in read(files["labels"]).splitlines()]
    if wl.tokenizer == "word":
        problems += check_labels(wl, inputs, records)
    if wl.min_count == 1 and not wl.held_out:
        # In-sample at min_count 1, every unit's rule is in the dictionary.
        problems += checks.check_exact_decode(
            records, read(files["decoded"]).splitlines(), [p.gold for p in test]
        )
        problems += checks.check_report(
            read(files["report_decoded"]), {"precision": 1.0, "recall": 1.0}
        )
    if tracer is not None:
        if not tracer.alignments:
            problems.append("the traced run captured no alignments")
        for subwords, gold, alignment in tracer.alignments:
            problems += checks.check_alignment(subwords, gold, alignment)
    return problems


def check_labels(wl: Workload, inputs: dict, records) -> list[str]:
    """Re-aligns the test pairs with the program's ``unit_pairs`` (word tokenizer)."""
    transform = sys.modules["gecxform.transform"]
    textnorm = sys.modules["gecxform.textnorm"]
    tokenizer = sys.modules["gecxform.tokenizer"]
    dictionary = transform.load_dictionary(inputs["files"]["dict"])
    casing = textnorm.CasingMode.parse(wl.casing)
    unit_spans = [
        transform.unit_pairs(p.source, p.gold, dictionary.mode, casing,
                             tokenizer.TokenizerMode.word())
        for p in inputs["test"]
    ]

    def apply_rule(label: int, unit: str):
        return transform.apply_transformation(dictionary.transformation_for(label), unit)

    return checks.check_labels_reach_spans(records, unit_spans, apply_rule)


# --- main -------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "induce_pairs_per_s": "pairs/s",
    "encode_pairs_per_s": "pairs/s",
    "analyze_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "corpus.load_s": "s",
    "tokenizer.calls": "count",
    "tokenizer.busy_s": "s",
    "align.calls": "count",
    "align.busy_s": "s",
    "align.chars_per_s": "chars/s",
    "editscript.build_calls": "count",
    "editscript.build_s": "s",
    "editscript.apply_calls": "count",
    "editscript.apply_s": "s",
    "transform.fallback_scans": "count",
    "transform.fallback_hits_per_scan": "ratio",
    "transform.unreachable_scans": "count",
    "transform.threshold_s": "s",
    "transform.encode_self_s": "s",
    "transform.decode_s": "s",
    "evaluate.oracle_s": "s",
    "evaluate.realign_calls": "count",
    "evaluate.score_s": "s",
}


def end_to_end(inputs, setups, rounds, peak_rss_mb, rescale=True) -> dict[str, float]:
    """Medians over the run, scaled by the run's mean probe time (or not)."""
    probes = [p for _, p in setups] + [p for r in rounds for p in r["probes"].values()]
    # Times are multiplied, rates divided, by this factor.
    factor = PROBE_REF_S / statistics.mean(probes) if rescale else 1.0
    n_train, n_test = len(inputs["train"]), len(inputs["test"])
    return {
        "setup_s": statistics.median(s for s, _ in setups) * factor,
        "induce_pairs_per_s":
            statistics.median(n_train / r["times"]["induce"] for r in rounds) / factor,
        "encode_pairs_per_s":
            statistics.median(n_test / r["times"]["encode"] for r in rounds) / factor,
        "analyze_s": statistics.median(r["times"]["analyze"] for r in rounds) * factor,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rounds) -> dict[str, float]:
    return {
        name: statistics.median(r["layers"][name] for r in rounds) for name in PER_LAYER_UNITS
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small round; checks that the benchmark works")
    return parser.parse_args(argv)


def bench(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "gecxform" / "cli.py").is_file():
        raise BenchError(f"no gecxform sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "corpusgen.py").is_file():
        raise BenchError(f"no corpus generator at {ROOT / 'tests' / 'corpusgen.py'}")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GEC_XFORM_THREADS", None)  # serial: one busy process on the machine

    wl = WORKLOADS[args.workload]
    if args.quick:
        wl = replace(wl, **QUICK[args.workload])
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        tracer = Tracer() if args.trace else None
        inputs, setups, rounds, attempted, failed = run_rounds(
            wl, args.seed, work, args.seconds, args.quick, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_outputs(wl, inputs, rounds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units = per_layer(rounds), PER_LAYER_UNITS
    else:
        values = end_to_end(inputs, setups, rounds, peak_rss_mb)
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "problems": problems[:50], "setups": setups, "rounds": rounds,
        "unscaled": end_to_end(inputs, setups, rounds, peak_rss_mb, rescale=False), "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed})
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, detail = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
