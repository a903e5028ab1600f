"""Output checks for the benchmark, stated as properties of the method.

Nothing here compares against stored output. Every check returns a list of
problems; an empty list means the check passed. The alignment weights are
recomputed with this module's own normalization and Levenshtein code, so a
fault in the program's cost function cannot hide itself.
"""

from __future__ import annotations

import unicodedata

UNCORRECTABLE_FORM = "UNCORRECTABLE"
KEEP_FORM = "KEEP"
MODES = ("char-at-subword", "char-at-word", "string-at-subword", "string-at-word")
WEIGHT_TOLERANCE = 1e-9


# --- alignments -----------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def normalize(text: str) -> str:
    """Alignment view: lowercase, no diacritics, punctuation folded, spaces unified."""
    out = []
    for ch in text:
        if ch.isspace():
            out.append(" ")
        elif unicodedata.category(ch)[0] == "P" or unicodedata.category(ch) in ("Sc", "Sm"):
            out.append(".")
        else:
            bare = unicodedata.normalize("NFD", ch)
            bare = "".join(c for c in bare if not unicodedata.combining(c))
            out.append(unicodedata.normalize("NFC", bare).lower())
    return "".join(out)


def pair_weight(subword: str, span: str) -> float:
    """The paper's pair weight: 1 exact, 0.75 equal up to spaces, else half similarity."""
    sub, spn = normalize(subword), normalize(span)
    if sub == spn:
        return 1.0
    sub, spn = sub.strip(), spn.strip()
    if sub == spn:
        return 0.75
    return 0.5 * (1.0 - levenshtein(sub, spn) / max(len(sub), len(spn)))


def check_alignment(subwords: list[str], gold: str, alignment) -> list[str]:
    """Spans tile the gold text with its leading space; the weight is their sum."""
    lead = " " + gold
    spans = list(alignment.spans)
    problems = []
    if alignment.gold != lead:
        problems.append(f"alignment gold {alignment.gold!r} is not {lead!r}")
    if len(spans) != len(subwords):
        return problems + [f"{len(spans)} spans for {len(subwords)} subwords"]
    end = 0
    for start, stop in spans:
        if start != end or stop < start:
            return problems + [f"spans {spans} do not tile the gold text"]
        end = stop
    if lead[end:].strip():
        problems.append(f"spans leave {lead[end:]!r} of the gold text uncovered")
    weight = sum(
        pair_weight(sub, lead[a:b]) for sub, (a, b) in zip(subwords, spans) if b > a
    )
    if abs(weight - alignment.total_weight) > WEIGHT_TOLERANCE * max(1, len(spans)):
        problems.append(f"total_weight {alignment.total_weight} but spans sum to {weight}")
    return problems


# --- dictionaries ---------------------------------------------------------------


def parse_dictionary(text: str) -> tuple[dict[str, str], list[tuple[int, int, str]]]:
    lines = text.rstrip("\n").split("\n")
    header = dict(field.split("=", 1) for field in lines[0].split(" "))
    entries = []
    for line in lines[1:]:
        ident, count, form = line.split("\t", 2)
        entries.append((int(ident), int(count), form))
    return header, entries


def check_dictionary(text: str, min_count: int) -> list[str]:
    """Id 0 uncorrectable, id 1 keep, dense ids, rules by falling count above the floor."""
    header, entries = parse_dictionary(text)
    problems = []
    if header.get("min_count") != str(min_count):
        problems.append(f"header min_count {header.get('min_count')} is not {min_count}")
    if [e[0] for e in entries] != list(range(len(entries))):
        problems.append("ids are not dense from 0")
    if len(entries) < 2 or entries[0][2] != UNCORRECTABLE_FORM or entries[1][2] != KEEP_FORM:
        return problems + ["ids 0 and 1 are not uncorrectable and keep"]
    counts = [e[1] for e in entries[2:]]
    if any(a < b for a, b in zip(counts, counts[1:])):
        problems.append("rule counts increase after id 1")
    if any(c < min_count for c in counts):
        problems.append(f"a rule count is below min_count {min_count}")
    if len({e[2] for e in entries}) != len(entries):
        problems.append("a rule appears twice")
    return problems


# --- labels and decoding ----------------------------------------------------------


def check_labels_reach_spans(records, unit_spans, apply_rule) -> list[str]:
    """Every unit with a label other than 0 is rewritten into its aligned gold span.

    ``unit_spans[i]`` holds the program's (units, spans) for pair i, and
    ``apply_rule(label, unit)`` applies the dictionary entry ``label``.
    """
    problems = []
    if len(records) != len(unit_spans):
        return [f"{len(records)} label records for {len(unit_spans)} pairs"]
    for idx, (record, (units, spans)) in enumerate(zip(records, unit_spans)):
        if list(record["units"]) != list(units):
            problems.append(f"pair {idx}: labelled units differ from the tokenization")
            continue
        for unit, label, span in zip(units, record["labels"], spans):
            if label != 0 and apply_rule(label, unit) != span:
                problems.append(f"pair {idx}: label {label} turns {unit!r} into "
                                f"{apply_rule(label, unit)!r}, not {span!r}")
    return problems


def check_exact_decode(records, decoded: list[str], golds: list[str]) -> list[str]:
    """No unit is uncorrectable and every decoded sentence equals its gold."""
    problems = []
    if len(records) != len(golds) or len(decoded) != len(golds):
        return [f"{len(records)} records and {len(decoded)} outputs for {len(golds)} pairs"]
    for idx, (record, out, gold) in enumerate(zip(records, decoded, golds)):
        if 0 in record["labels"]:
            problems.append(f"pair {idx} has an uncorrectable label")
        if out != gold:
            problems.append(f"pair {idx} decodes to {out!r}, not its gold")
    return problems


# --- scores -------------------------------------------------------------------


def parse_report(text: str) -> dict[str, float]:
    header, values = text.strip().split("\n")
    return {k: float(v) for k, v in zip(header.split("\t"), values.split("\t"))}


def check_report(text: str, expected: dict[str, float]) -> list[str]:
    report = parse_report(text)
    return [f"{k} is {report[k]}, expected {v}" for k, v in expected.items() if report[k] != v]


def check_sweep(
    tsv: str, min_counts, iterations, exact_modes, word_tokenizer: bool
) -> list[str]:
    """Row count, dict sizes, subword = word rows under the word tokenizer, and
    F0.5 = 1 at min_count 1 (the sweep is in-sample) for ``exact_modes``."""
    lines = tsv.rstrip("\n").split("\n")
    head = lines[0].split("\t")
    rows = [dict(zip(head, line.split("\t"))) for line in lines[1:]]
    problems = []
    want = len(MODES) * len(min_counts) * len(iterations)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    by_key = {(r["mode"], int(r["min_count"]), int(r["iterations"])): r for r in rows}
    for (mode, mc, it), row in by_key.items():
        if mc == 1 and mode in exact_modes and float(row["f0.5"]) != 1.0:
            problems.append(f"{mode} min_count 1 iterations {it}: F0.5 {row['f0.5']}")
        higher = [m for m in min_counts if m > mc]
        if higher and (mode, min(higher), it) in by_key:
            nxt = by_key[(mode, min(higher), it)]
            if int(nxt["dict_size"]) > int(row["dict_size"]):
                problems.append(f"{mode} iterations {it}: dict_size grows with min_count")
        if word_tokenizer and mode.endswith("-at-subword"):
            twin = by_key.get((mode.replace("-at-subword", "-at-word"), mc, it))
            fields = ("dict_size", "precision", "recall", "f0.5")
            if twin is None or any(twin[f] != row[f] for f in fields):
                problems.append(f"{mode} min_count {mc} iterations {it} differs from its word row")
    return problems
