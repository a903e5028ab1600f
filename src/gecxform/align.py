"""Extended-LCS alignment of input subwords to contiguous spans of a corrected sentence.

Each subword is assigned a possibly-empty contiguous span of the corrected
("gold") sentence so that the sum of per-pair weights is maximal. Comparisons
ignore casing, diacritics and the identity of punctuation characters; spans
are cut from the original gold text. The gold sentence receives one prepended
space so that its words carry the same leading-space convention as the
subwords.

The dynamic program is exact and pure Python. Edit distances are computed
bit-parallel (Myers 1999; Hyyro 2003 for the global distance), one integer
step per gold character. The span of a subword stops growing once it is so
much longer than the subword that its weight, at most ``0.5 * ls / glen``
(trimmed lengths ``ls`` of the subword and ``glen`` of the span), plus the
best weight left after it cannot reach the best span found; see
``_solve_dp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .textnorm import alignment_normalize, alignment_normalized_view
from .tokenizer import WORD_LEAD

# A single subword may absorb at most 8 + 3 * len(subword) gold characters.
SPAN_BOUND_BASE = 8
SPAN_BOUND_PER_CHAR = 3

_NEG = float("-inf")

# Exhaustive search limits for the reference implementation.
BRUTEFORCE_MAX_SUBWORDS = 5
BRUTEFORCE_MAX_GOLD = 16


class AlignmentError(ValueError):
    """No complete alignment exists (the gold text has no alignable characters)."""


def span_length_bound(subword_len: int) -> int:
    return SPAN_BOUND_BASE + SPAN_BOUND_PER_CHAR * subword_len


def _peq(pattern: str) -> dict[str, int]:
    """Per character, the bit mask of its positions in ``pattern``."""
    peq: dict[str, int] = {}
    for k, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << k)
    return peq


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, bit-parallel over the characters of ``a``.

    Myers (1999) with the global-distance boundary of Hyyro (2003): ``vp`` and
    ``vn`` hold the +1/-1 vertical deltas of the current DP column, one bit
    per character of ``a``, and each character of ``b`` advances the column
    in a constant number of integer operations. ``_solve_dp`` runs the same
    step inline.
    """
    if not a:
        return len(b)
    peq = _peq(a)
    mask = (1 << len(a)) - 1
    high = 1 << (len(a) - 1)
    vp, vn, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & high:
            dist += 1
        elif hn & high:
            dist -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(xv | hp)) & mask
        vn = hp & xv
    return dist


def _stripped_cost(dist: int, len_a: int, len_b: int) -> float:
    """Weight of a pair that is not an exact match, from its trimmed strings.

    ``dist`` is the edit distance of the two trimmed strings and ``len_a``,
    ``len_b`` their lengths: 0.75 when they are equal, else half their
    Levenshtein similarity.
    """
    if dist == 0:
        return 0.75
    return 0.5 * (1.0 - dist / (len_a if len_a > len_b else len_b))


def span_cost(subword: str, span: str) -> float:
    """Weight of pairing one normalized subword with one candidate gold span.

    Exact match scores 1, whitespace-trimmed equality 0.75, anything else half
    the Levenshtein similarity. The similarity is taken over the trimmed
    strings: surrounding whitespace carries no evidence, and counting it would
    let a shifted word boundary outweigh an in-word match.
    """
    if subword == span:
        return 1.0
    sub = subword.strip()
    spn = span.strip()
    return _stripped_cost(edit_distance(sub, spn), len(sub), len(spn))


@dataclass(frozen=True)
class Alignment:
    """Per-subword spans over ``gold`` (the corrected sentence with one leading space).

    Spans are half-open ``(start, end)`` character offsets, non-overlapping and
    in order; together they cover every gold character except possibly
    trailing whitespace. A skipped subword has an empty span.
    """

    gold: str
    spans: tuple[tuple[int, int], ...]
    total_weight: float

    @property
    def span_texts(self) -> list[str]:
        return [self.gold[a:b] for a, b in self.spans]


def _prepare(subwords: Sequence[str], gold: str):
    if not subwords:
        raise ValueError("alignment requires at least one subword")
    if not gold:
        raise ValueError("alignment requires non-empty gold text")
    lead_gold = WORD_LEAD + gold
    view = alignment_normalized_view(lead_gold)
    if not view.normalized.strip():
        raise AlignmentError("gold text contains only whitespace")
    normed = [alignment_normalize(t) for t in subwords]
    return lead_gold, view, normed


def align(subwords: Sequence[str], gold: str) -> Alignment:
    """Maximum-weight alignment of ``subwords`` to spans of ``gold``.

    Dynamic program over (subword index, gold offset): a subword is either
    skipped or consumes a span of up to ``span_length_bound`` characters;
    whitespace-only spans are never consumed and the gold text must be fully
    consumed except for trailing whitespace. Ties prefer skipping, then the
    shorter span for the earlier subword. If the length bound makes full
    consumption impossible the bound is lifted for that sentence.
    """
    lead_gold, view, normed = _prepare(subwords, gold)
    g = view.normalized
    result = _solve_dp(normed, g, bounded=True)
    if result is None:
        result = _solve_dp(normed, g, bounded=False)
    if result is None:
        raise AlignmentError("no complete alignment exists")
    weight, norm_spans = result
    cuts = view.boundaries()
    spans = tuple((cuts[a], cuts[b]) for a, b in norm_spans)
    return Alignment(lead_gold, spans, weight)


def _solve_dp(normed: list[str], g: str, bounded: bool):
    """Best weight and spans over the normalized gold ``g``, or None without a cover.

    Rows run from the last subword back; ``w_next[e]`` is the best weight of
    the later subwords over ``g[e:]``. For each start offset the span grows
    one character at a time, and the edit distance of the stripped subword
    to the stripped span advances by one bit-parallel column step (Myers
    1999, with the global-distance boundary of Hyyro 2003). It is the step
    of ``edit_distance``, inlined: a generator call per character made
    alignment about 15% slower.

    The span loop stops early, without changing the result. Once the stripped
    span is longer than the stripped subword (``glen > ls``), neither an
    exact nor a trimmed-equal match is possible any more, and the distance is
    at least ``glen - ls``, so this and every longer span costs at most
    ``0.5 * ls / glen``; ``glen`` never shrinks as the span grows. With
    ``sufmax[e]``, the best tail weight at ``e`` or later, no later candidate
    can then exceed ``0.5 * ls / glen + sufmax[e]``. The loop breaks when that
    bound is below the best candidate by more than 1e-9, so a candidate that
    could tie the best, which the tie rules might prefer, is never cut.
    """
    n = len(normed)
    m = len(g)
    # nonspace[j]: the first offset at or after j that is not a space
    nonspace = list(range(m + 1))
    for j in range(m - 1, -1, -1):
        if g[j] == " ":
            nonspace[j] = nonspace[j + 1]

    w_next = [0.0 if nonspace[j] == m else _NEG for j in range(m + 1)]
    choices: list[list[int]] = []
    neg = _NEG

    for i in range(n - 1, -1, -1):
        s = normed[i]
        stripped = s.strip()
        ls = len(stripped)
        ns = len(s)
        half_ls = 0.5 * ls
        limit_default = span_length_bound(ns) if bounded else m
        sufmax = w_next[:]
        for e in range(m - 1, -1, -1):
            if sufmax[e + 1] > sufmax[e]:
                sufmax[e] = sufmax[e + 1]
        peq = _peq(stripped)
        eqs = [peq.get(ch, 0) for ch in g]
        mask = (1 << ls) - 1
        # With an empty pattern each step must add 1, which bit 0 of hp does.
        high = 1 << (ls - 1) if ls else 1
        w_cur = [neg] * (m + 1)
        ci = [0] * (m + 1)
        for j in range(m + 1):
            best = w_next[j]
            choice = 0
            stop = j + min(m - j, limit_default)
            first = nonspace[j]  # whitespace-only spans are never candidates
            exact_end = j + ns if g.startswith(s, j) else -1
            vp, vn, dist = mask, 0, ls
            for e in range(first + 1, stop + 1):
                eq = eqs[e - 1]
                xv = eq | vn
                xh = (((eq & vp) + vp) ^ vp) | eq
                hp = vn | ~(xh | vp)
                hn = vp & xh
                if hp & high:
                    dist += 1
                elif hn & high:
                    dist -= 1
                hp = (hp << 1) | 1
                vp = ((hn << 1) | ~(xv | hp)) & mask
                vn = hp & xv
                # trailing whitespace joins the stripped span only once
                # content follows it, so the cost changes at content only
                if g[e - 1] != " ":
                    glen = e - first
                    if glen > ls and half_ls / glen + sufmax[e] < best - 1e-9:
                        break
                    c = _stripped_cost(dist, ls, glen)
                tail = w_next[e]
                if tail == neg:
                    continue
                cand = (1.0 if e == exact_end else c) + tail
                if cand > best:
                    best = cand
                    choice = e - j
            w_cur[j] = best
            ci[j] = choice
        w_next = w_cur
        choices.append(ci)

    if w_next[0] == _NEG:
        return None
    choices.reverse()
    spans = []
    j = 0
    for i in range(n):
        l = choices[i][j]
        spans.append((j, j + l))
        j += l
    return w_next[0], spans


def align_bruteforce(subwords: Sequence[str], gold: str) -> Alignment:
    """Reference alignment by exhaustive enumeration of contiguous span partitions.

    Only intended for tests; raises ValueError beyond
    ``BRUTEFORCE_MAX_SUBWORDS`` subwords or ``BRUTEFORCE_MAX_GOLD`` gold
    characters.
    """
    if len(subwords) > BRUTEFORCE_MAX_SUBWORDS or len(gold) > BRUTEFORCE_MAX_GOLD:
        raise ValueError("instance too large for exhaustive alignment")
    lead_gold, view, normed = _prepare(subwords, gold)
    g = view.normalized
    m = len(g)
    n = len(normed)
    tail_ws = [False] * (m + 1)
    tail_ws[m] = True
    for j in range(m - 1, -1, -1):
        tail_ws[j] = tail_ws[j + 1] and g[j] == " "

    def best(i: int, j: int, bounded: bool, memo: dict):
        if i == n:
            return (0.0, ()) if tail_ws[j] else None
        key = (i, j)
        if key in memo:
            return memo[key]
        s = normed[i]
        result = None
        tail = best(i + 1, j, bounded, memo)
        if tail is not None:
            result = (tail[0], ((j, j),) + tail[1])
        limit = min(m - j, span_length_bound(len(s)) if bounded else m)
        for l in range(1, limit + 1):
            span = g[j : j + l]
            if span.isspace():
                continue
            rest = best(i + 1, j + l, bounded, memo)
            if rest is None:
                continue
            cand = span_cost(s, span) + rest[0]
            if result is None or cand > result[0]:
                result = (cand, ((j, j + l),) + rest[1])
        memo[key] = result
        return result

    solved = best(0, 0, True, {})
    if solved is None:
        solved = best(0, 0, False, {})
    if solved is None:
        raise AlignmentError("no complete alignment exists")
    weight, norm_spans = solved
    cuts = view.boundaries()
    spans = tuple((cuts[a], cuts[b]) for a, b in norm_spans)
    return Alignment(lead_gold, spans, weight)
