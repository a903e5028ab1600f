"""Same-process A/B timing of ``align`` between two source trees.

Usage::

    python tests/align_ab.py A_SRC B_SRC [--seed 1] [--pairs 24] [--rounds 15]

``A_SRC`` and ``B_SRC`` are directories that hold a ``gecxform`` package (the
``src`` of two checkouts, or the same one twice). Each tree is imported under
its own package name (``ab_a``, ``ab_b``), so its relative imports stay
inside it. The pairs are seeded corpusgen sentences of ``--min-words`` to
``--max-words`` words, corrupted with the uncased or cased noise of
corpusgen, and tokenized once by the word tokenizer of tree A; both trees
align the same subwords to the same gold.

Each round aligns every pair with one tree, then with the other; the tree
that goes first alternates from round to round. A tree whose ``align``
module defines ``CostTables`` gets a fresh one for each pass over the pairs,
as one command does. Every alignment of tree B must equal tree A's in spans
and ``total_weight``, or the script exits with status 1. It prints the
median and quartiles of a pass for each tree, the quartiles of the per-round
ratios A/B with the number of rounds that B won (a tie counts for neither
tree), and A's median over B's (above 1 when B is faster). Two copies of one
tree can read ten percent apart, so a gain counts only when B wins nine
rounds in ten and the medians differ by more than A's quartile spread.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpusgen  # noqa: E402  (needs the path above)
from gecxform.corpus import corrupt_corpus  # noqa: E402


def import_tree(src: Path, name: str):
    """The ``align`` and ``tokenizer`` modules of the ``gecxform`` package under ``src``."""
    package_dir = src.resolve() / "gecxform"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.align"), importlib.import_module(f"{name}.tokenizer")


def make_pairs(tokenizer, args) -> list[tuple[list[str], str]]:
    """``(subwords, gold)`` of ``args.pairs`` seeded corpusgen pairs."""
    noise = corpusgen.cased_noise_config if args.cased else corpusgen.uncased_noise_config
    golds = corpusgen.gold_corpus(
        args.pairs, args.seed, min_words=args.min_words, max_words=args.max_words
    )
    casing = tokenizer.CasingMode.CASED if args.cased else tokenizer.CasingMode.UNCASED
    mode = tokenizer.TokenizerMode.word()
    return [
        (tokenizer.tokenize(pair.source, mode, casing), pair.gold)
        for pair in corrupt_corpus(golds, noise(args.seed))
    ]


def one_pass(align_module, pairs):
    """Wall time of aligning every pair once, and the alignments."""
    extra = (align_module.CostTables(),) if hasattr(align_module, "CostTables") else ()
    t0 = time.perf_counter()
    out = [align_module.align(subwords, gold, *extra) for subwords, gold in pairs]
    return time.perf_counter() - t0, out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, within the range of ``values``."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--min-words", type=int, default=8)
    parser.add_argument("--max-words", type=int, default=14)
    parser.add_argument("--cased", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")

    align_a, tokenizer_a = import_tree(args.a_src, "ab_a")
    align_b, _ = import_tree(args.b_src, "ab_b")
    pairs = make_pairs(tokenizer_a, args)
    times: dict[str, list[float]] = {"A": [], "B": []}
    sides = [("A", align_a), ("B", align_b)]
    for r in range(args.rounds):
        results = {}
        for side, module in sides if r % 2 == 0 else sides[::-1]:
            elapsed, results[side] = one_pass(module, pairs)
            times[side].append(elapsed)
        for (subwords, gold), a, b in zip(pairs, results["A"], results["B"]):
            if (a.spans, a.total_weight) != (b.spans, b.total_weight):
                print(f"alignments differ for {subwords!r} / {gold!r}: {a} != {b}")
                return 1
    print(f"{len(pairs)} pairs, {args.rounds} rounds, seed {args.seed}")
    for side, src in (("A", args.a_src), ("B", args.b_src)):
        low, median, high = (t * 1e3 for t in quartiles(times[side]))
        print(f"{side} {src}: median {median:.2f} ms a pass, quartiles {low:.2f}-{high:.2f} ms")
    ratios = [a / b for a, b in zip(times["A"], times["B"])]
    low, _, high = quartiles(ratios)
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"A/B per round: quartiles {low:.3f}-{high:.3f}x, B won {wins} of {args.rounds} rounds")
    print(f"speedup (A/B): {statistics.median(times['A']) / statistics.median(times['B']):.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
