"""In-memory tracer that wraps gecxform's layer functions at their call sites.

Each wrapper times one call, charges its duration to the enclosing span as
child time (so every span also has a self time), and counts calls. Calls of
the coarse functions are kept as spans. The leaf functions (tokenize, build,
lookup, apply) run up to hundreds of thousands of times a run, so only their
per-name totals are kept; no kept span has one of them as its parent.
Everything stays in memory until :meth:`Tracer.dump` writes it out.

Functions are wrapped at the module attribute through which the program calls
them (``gecxform.transform.align``, not ``gecxform.align.align``), because
``from .align import align`` binds the name in the caller's namespace. Note
that ``import gecxform.align`` yields the *function* ``align``, which
``gecxform/__init__.py`` re-exports over the submodule; modules are therefore
looked up in ``sys.modules``.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, keep spans, observer method). Every attribute
# is a public name; TransformationDictionary.lookup is a method of a class.
TARGETS = [
    ("gecxform.cli", "main", "cli.main", True, "_end_command"),
    ("gecxform.cli", "load_corpus", "corpus.load", True, None),
    ("gecxform.cli", "load_vocab", "tokenizer.load_vocab", True, None),
    ("gecxform.transform", "tokenize", "tokenizer.tokenize", False, None),
    ("gecxform.evaluate", "tokenize", "tokenizer.tokenize", False, None),
    ("gecxform.transform", "align", "align.align", True, "_observe_align"),
    ("gecxform.transform", "build_unit_transformation", "editscript.build", False,
     "_observe_build"),
    ("gecxform.transform", "TransformationDictionary.lookup", "transform.lookup", False,
     "_observe_lookup"),
    ("gecxform.transform", "apply_transformation", "editscript.apply", False,
     "_observe_apply"),
    ("gecxform.evaluate", "apply_transformation", "editscript.apply_oracle", False, None),
    ("gecxform.transform", "counts_from_unit_data", "transform.counts", True, None),
    ("gecxform.evaluate", "counts_from_unit_data", "transform.counts", True, None),
    ("gecxform.transform", "dictionary_from_counts", "transform.threshold", True, None),
    ("gecxform.evaluate", "dictionary_from_counts", "transform.threshold", True, None),
    ("gecxform.cli", "induce", "transform.induce", True, None),
    ("gecxform.cli", "encode", "transform.encode", True, None),
    ("gecxform.cli", "apply_labels", "transform.decode", True, None),
    ("gecxform.cli", "analyze", "evaluate.analyze", True, None),
    ("gecxform.evaluate", "oracle_upper_bound", "evaluate.oracle", True, None),
    ("gecxform.evaluate", "unit_pairs", "evaluate.realign", True, None),
    ("gecxform.cli", "score", "evaluate.score", True, None),
    ("gecxform.evaluate", "score", "evaluate.oracle_score", True, None),
]


class Tracer:
    """Span recorder plus the counters the fallback-scan metrics need.

    A unit being encoded whose built rule misses
    ``TransformationDictionary.lookup`` starts a fallback scan of the
    dictionary. So does a unit whose rule cannot be built at all; those are
    counted apart, as no entry can rewrite such a unit. A scan is a hit when
    one of the ``transform.apply_transformation`` calls that follow yields the
    unit's gold span. Builds inside ``counts_from_unit_data`` belong to
    induction and start no scan.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.alignments: list[tuple[list[str], str, object]] = []
        self.capture_alignments = False
        self._stack: list[list] = []  # [name, child time, span id] per open call
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._scan_target: str | None = None  # counter prefix of the open scan
        self._unit_span: str | None = None

    def install(self) -> None:
        for module_name, attr, name, keep, observer in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._wrap(owner, leaf, name, keep, observer and getattr(self, observer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr: str, name: str, keep: bool, observe) -> None:
        original = getattr(owner, attr)
        stack = self._stack
        totals = self.totals
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, next(ids)]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans.append((frame[2], parent, name, t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # --- observers ------------------------------------------------------------

    def _end_command(self, args, result) -> None:
        self._scan_target = None

    def _observe_align(self, args, result) -> None:
        subwords, gold = args[0], args[1]
        self.counters["align.gold_chars"] += len(gold)
        if self.capture_alignments:
            texts = subwords.texts() if hasattr(subwords, "texts") else list(subwords)
            self.alignments.append((texts, gold, result))

    def _observe_build(self, args, result) -> None:
        if any(frame[0] == "transform.counts" for frame in self._stack):
            return
        self._scan_target = None
        self._unit_span = args[1]
        if result is None:
            self._start_scan("transform.unreachable")

    def _observe_lookup(self, args, result) -> None:
        if result is None:
            self._start_scan("transform.fallback")

    def _observe_apply(self, args, result) -> None:
        if self._scan_target is not None and result == self._unit_span:
            self.counters[self._scan_target + "_hits"] += 1
            self._scan_target = None

    def _start_scan(self, kind: str) -> None:
        self.counters[kind + "_scans"] += 1
        self._scan_target = kind

    # --- reporting ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Cumulative totals, flattened; a round's values are differences."""
        flat = dict(self.counters)
        for name, (calls, total, self_time) in self.totals.items():
            flat[name + ".calls"] = calls
            flat[name + ".total"] = total
            flat[name + ".self"] = self_time
        return flat

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
            for sid, parent, name, t0, t1 in sorted(self.spans)
        ]
        payload["totals"] = {
            name: {"calls": calls, "total_s": total, "self_s": self_time}
            for name, (calls, total, self_time) in sorted(self.totals.items())
        }
        payload["counters"] = dict(self.counters)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def layer_metrics(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one round from two :meth:`Tracer.snapshot` results."""

    def d(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    align_busy = d("align.align.total")
    scans = d("transform.fallback_scans")
    return {
        "cli.self_s": d("cli.main.self"),
        "corpus.load_s": d("corpus.load.total"),
        "tokenizer.calls": d("tokenizer.tokenize.calls") + d("tokenizer.load_vocab.calls"),
        "tokenizer.busy_s": d("tokenizer.tokenize.total") + d("tokenizer.load_vocab.total"),
        "align.calls": d("align.align.calls"),
        "align.busy_s": align_busy,
        "align.chars_per_s": d("align.gold_chars") / align_busy if align_busy else 0.0,
        "editscript.build_calls": d("editscript.build.calls"),
        "editscript.build_s": d("editscript.build.total"),
        "editscript.apply_calls": d("editscript.apply.calls") + d("editscript.apply_oracle.calls"),
        "editscript.apply_s": d("editscript.apply.total") + d("editscript.apply_oracle.total"),
        "transform.fallback_scans": scans,
        "transform.fallback_hits_per_scan": (
            d("transform.fallback_hits") / scans if scans else 0.0
        ),
        "transform.unreachable_scans": d("transform.unreachable_scans"),
        "transform.threshold_s": d("transform.threshold.total"),
        "transform.encode_self_s": d("transform.encode.self"),
        "transform.decode_s": d("transform.decode.total"),
        "evaluate.oracle_s": d("evaluate.oracle.total") - d("evaluate.oracle_score.total"),
        "evaluate.realign_calls": d("evaluate.realign.calls"),
        "evaluate.score_s": d("evaluate.score.total") + d("evaluate.oracle_score.total"),
    }
