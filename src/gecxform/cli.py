"""Command-line pipelines: induce, encode, apply, evaluate, analyze, corrupt.

Every command is deterministic given its inputs and flags; only ``corrupt``
draws random numbers, seeded by ``--seed`` or its config. A JSON manifest with
flag values and input digests is written next to each output file. Exit codes:
0 success, 1 internal error, 2 usage or format error. Every input error exits
2 with a message that names the file, and the line where there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import __version__
from .corpus import (
    CorruptionConfig,
    corrupt_corpus,
    load_corpus,
    load_corruption_config,
    load_text,
    serialize_tsv,
    split_lines,
)
from .errors import FormatError
from .evaluate import (
    DEFAULT_ITERATIONS, DEFAULT_MIN_COUNTS, analyze, pair_gold_edits, rows_to_tsv, score,
)
from .textnorm import CasingMode
from .tokenizer import TokenizerMode, group_words, load_vocab, tokenize
from .transform import (
    ALL_MODES,
    DEFAULT_SYNTHETIC_LIMIT,
    UNCORRECTABLE_ID,
    GranularityMode,
    LabeledSentence,
    apply_labels,
    dumps_dictionary,
    encode,
    induce,
    load_dictionary,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

MODE_CHOICES = [mode.label for mode in ALL_MODES]

# Every flag that names an input file; the manifest digests the files they name.
INPUT_FLAGS = "corpus synthetic dictionary labels hypothesis vocab config input".split()


def _int_at_least(minimum: int):
    """argparse type: an int no smaller than ``minimum``; violations exit 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _write_output(args: argparse.Namespace, text: str, summary: str) -> int:
    """Write ``text`` and its manifest to ``--out`` and print ``summary``; no ``--out``: stdout.

    The inputs are digested first, so an input that cannot be read leaves no output.
    """
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    inputs = {}
    for flag in INPUT_FLAGS:
        value = getattr(args, flag, None) or []
        for path in map(Path, [value] if isinstance(value, str) else value):
            inputs[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    out = Path(args.out)
    manifest = {
        "tool": "gecxform",
        "version": __version__,
        "command": args.command,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": inputs,
        "output": str(out),
    }
    out.write_text(text, encoding="utf-8")
    Path(f"{out}.manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"{summary} -> {out}")
    return EXIT_OK


def _tokenizer_from_args(args: argparse.Namespace, casing: CasingMode) -> TokenizerMode:
    if args.tokenizer == "word":
        return TokenizerMode.word()
    if args.tokenizer == "chars":
        return TokenizerMode.char_chunks(args.chunk_size)
    if not args.vocab:
        raise FormatError("--tokenizer vocab requires --vocab")
    return TokenizerMode.vocab_greedy(load_vocab(args.vocab, casing))


def _load_pairs(paths: list[str], annotator: int):
    pairs = []
    for path in paths:
        pairs.extend(load_corpus(path, annotator=annotator))
    if not pairs:
        raise FormatError(f"no sentence pairs in {', '.join(paths)}")
    return pairs


def _add_tokenizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tokenizer", choices=["word", "vocab", "chars"], default="word",
        help="subword segmentation strategy (default: word)",
    )
    parser.add_argument("--vocab", help="vocabulary file for --tokenizer vocab")
    parser.add_argument(
        "--chunk-size", type=_int_at_least(1), default=1,
        help="characters per piece for --tokenizer chars (default: 1)",
    )


def cmd_induce(args: argparse.Namespace) -> int:
    casing = CasingMode.parse(args.casing)
    tokenizer = _tokenizer_from_args(args, casing)
    pairs = _load_pairs(args.corpus, args.annotator)
    synthetic = load_corpus(args.synthetic, annotator=args.annotator) if args.synthetic else []
    dictionary = induce(
        pairs,
        GranularityMode.parse(args.mode),
        casing,
        min_count=args.min_count,
        synthetic_pairs=synthetic,
        synthetic_limit=args.synthetic_limit,
        tokenizer=tokenizer,
    )
    summary = f"induced {dictionary.size} transformations"
    return _write_output(args, dumps_dictionary(dictionary), summary)


def _unaligned_record(source: str, dictionary, tokenizer: TokenizerMode) -> LabeledSentence:
    """The source's units, all uncorrectable, so that decoding gives the source back."""
    try:
        units = tokenize(source, tokenizer, dictionary.casing)
    except ValueError:
        units = []  # a source without words has no units
    if dictionary.mode.unit == "word":
        units = [word for word, _ in group_words(units)]
    return LabeledSentence(tuple(units), (UNCORRECTABLE_ID,) * len(units))


def cmd_encode(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(args.dictionary)
    if args.mode and GranularityMode.parse(args.mode) != dictionary.mode:
        raise FormatError(
            f"dictionary mode {dictionary.mode.label} does not match requested {args.mode}"
        )
    tokenizer = _tokenizer_from_args(args, dictionary.casing)
    pairs = _load_pairs(args.corpus, args.annotator)
    lines = []
    uncorrectable = skipped = 0
    for pair in pairs:
        try:
            labeled = encode(pair.source, pair.gold, dictionary, tokenizer)
        except ValueError as exc:
            log.warning("skipping pair: %s (source=%r)", exc, pair.source)
            labeled = _unaligned_record(pair.source, dictionary, tokenizer)
            skipped += 1
        uncorrectable += labeled.labels.count(UNCORRECTABLE_ID)
        record = {
            "source": pair.source,
            "units": list(labeled.units),
            "labels": list(labeled.labels),
        }
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return _write_output(
        args, "".join(lines),
        f"encoded {len(pairs)} sentences ({uncorrectable} uncorrectable labels, "
        f"{skipped} skipped pairs)",
    )


def _parse_labels(text: str, size: int) -> list[LabeledSentence]:
    """The records of a label file, one JSON object a line; blank lines are skipped."""
    records = []
    for lineno, line in enumerate(map(str.strip, split_lines(text)), 1):
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or not {"units", "labels"} <= record.keys():
                raise ValueError("expected an object with units and labels")
            units, labels = record["units"], record["labels"]
            if not isinstance(units, list) or not all(isinstance(u, str) for u in units):
                raise ValueError("units must be a list of strings")
            if not isinstance(labels, list) or not all(
                type(label) is int and 0 <= label < size for label in labels
            ):
                raise ValueError(f"labels must be a list of dictionary ids 0..{size - 1}")
            records.append(LabeledSentence(tuple(units), tuple(labels)))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return records


def cmd_apply(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(args.dictionary)
    records = load_text(args.labels, _parse_labels, dictionary.size)
    decoded = "".join(apply_labels(labeled, dictionary) + "\n" for labeled in records)
    return _write_output(args, decoded, f"applied labels to {len(records)} sentences")


def cmd_evaluate(args: argparse.Namespace) -> int:
    pairs = _load_pairs(args.corpus, args.annotator)
    hypothesis_lines = load_text(args.hypothesis, split_lines)
    if len(hypothesis_lines) != len(pairs):
        raise FormatError(
            f"{args.hypothesis}: {len(hypothesis_lines)} lines for {len(pairs)} sentence pairs"
        )
    counts = score(
        (pair.source, hyp, pair_gold_edits(pair, args.annotator))
        for pair, hyp in zip(pairs, hypothesis_lines)
    )
    report = (
        "tp\tfp\tfn\tprecision\trecall\tf0.5\n"
        f"{counts.tp}\t{counts.fp}\t{counts.fn}\t{counts.precision:.4f}"
        f"\t{counts.recall:.4f}\t{counts.f_half:.4f}\n"
    )
    return _write_output(args, report, f"scored {len(pairs)} sentences")


def cmd_analyze(args: argparse.Namespace) -> int:
    casing = CasingMode.parse(args.casing)
    tokenizer = _tokenizer_from_args(args, casing)
    pairs = _load_pairs(args.corpus, args.annotator)
    rows = analyze(
        pairs,
        casing,
        tokenizer,
        min_counts=tuple(args.min_counts),
        iteration_counts=tuple(args.iterations),
        annotator=args.annotator,
    )
    return _write_output(args, rows_to_tsv(rows), f"wrote {len(rows)} analysis rows")


def _gold_lines(text: str) -> list[str]:
    """The non-blank lines of a gold file; a tab, which its TSV pair could not hold, is refused."""
    lines = split_lines(text)
    for lineno, line in enumerate(lines, 1):
        if "\t" in line:
            raise FormatError(f"line {lineno}: a gold sentence cannot hold a tab")
    return [line for line in lines if line.strip()]


def cmd_corrupt(args: argparse.Namespace) -> int:
    config = load_corruption_config(args.config) if args.config else CorruptionConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    golds = load_text(args.input, _gold_lines)
    pairs = corrupt_corpus(golds, config)
    return _write_output(args, serialize_tsv(pairs), f"corrupted {len(pairs)} sentences")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecxform",
        description="Induce correction transformations from parallel GEC corpora, "
        "encode and decode sentences as per-unit labels, and run oracle analyses.",
    )
    parser.add_argument("--version", action="version", version=f"gecxform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="induce a transformation dictionary from a corpus")
    p.add_argument("corpus", nargs="+", help="corpus files (.m2 or TSV)")
    p.add_argument("--mode", choices=MODE_CHOICES, required=True)
    p.add_argument("--casing", choices=["cased", "uncased"], default="uncased")
    p.add_argument("--min-count", type=_int_at_least(1), default=1, dest="min_count")
    p.add_argument("--synthetic", help="synthetic corpus file pooled into induction")
    p.add_argument("--synthetic-limit", type=_int_at_least(0), default=DEFAULT_SYNTHETIC_LIMIT)
    p.add_argument("--annotator", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("encode", help="encode gold corrections as label files")
    p.add_argument("corpus", nargs="+")
    p.add_argument("--dict", required=True, dest="dictionary")
    p.add_argument("--mode", choices=MODE_CHOICES, help="cross-check against the dictionary")
    p.add_argument("--annotator", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("apply", help="decode a label file back to corrected text")
    p.add_argument("labels", help="JSON-lines label file from encode")
    p.add_argument("--dict", required=True, dest="dictionary")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("evaluate", help="score a hypothesis file against gold edits")
    p.add_argument("corpus", nargs="+")
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--annotator", type=_int_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="oracle upper-bound sweep over all granularities")
    p.add_argument("corpus", nargs="+")
    p.add_argument("--casing", choices=["cased", "uncased"], default="uncased")
    p.add_argument("--min-counts", type=_int_at_least(1), nargs="+", default=DEFAULT_MIN_COUNTS)
    p.add_argument("--iterations", type=_int_at_least(1), nargs="+", default=DEFAULT_ITERATIONS)
    p.add_argument("--annotator", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("corrupt", help="generate a synthetic parallel corpus from gold text")
    p.add_argument("input", help="text file with one gold sentence per line")
    p.add_argument("--config", help="flat key=value corruption config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corrupt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
