"""Extended-LCS alignment of input subwords to contiguous spans of a corrected sentence.

Each subword is assigned a possibly-empty contiguous span of the corrected
("gold") sentence so that the sum of per-pair weights is maximal (``_row``
defines the weight). Comparisons ignore casing, diacritics and the identity
of punctuation characters; spans are cut from the original gold text. The
gold sentence receives one prepended space so that its words carry the same
leading-space convention as the subwords.

The dynamic program is exact and pure Python; it runs one row per subword,
from the last one back (``_solve_dp``), and a row covers only the starts that
the earlier subwords' span bounds can reach. Every start offset of a row is a
lane of a Python int, and each gold character advances the bit-parallel edit
distance (Myers 1999; Hyyro 2003 for the global distance) of all lanes at
once (``_lane_counts``). The distances do not depend on the later rows, so
the rows of one lane width share one set of ints in groups, each one stream
that its rows read as they run, over windows of lanes fixed before the
dynamic program (``_lane_plan``); a cost table per subword length and step
turns the lanes' distances into weights. A command passes one
:class:`CostTables` to all its pairs, so the rows of subwords under 32
characters are computed once per command and dropped with it; longer rows
are built per pair. One pass over the lanes takes two
gold characters wherever no span bound is near (``_row``). Spans that end in
spaces are folded into the span before the spaces, and a lane stops once its
weight, at most ``0.5 * ls / glen`` (trimmed lengths ``ls`` of the subword
and ``glen`` of the span), plus the best weight left after it cannot reach
its best span. Each row is kept, and the spans are read back from the rows
with the same cost tables, one distance pass per subword over the ends of
its start (``edit_distances``).
"""

from __future__ import annotations

from array import array
from itertools import accumulate, repeat, tee
from typing import NamedTuple, Sequence

from .textnorm import alignment_cuts, alignment_normalize
from .tokenizer import WORD_LEAD

# A single subword may absorb at most 8 + 3 * len(subword) gold characters.
SPAN_BOUND_BASE = 8
SPAN_BOUND_PER_CHAR = 3

# The bytes of counts that one group of alignment rows holds (``_lane_plan``).
GROUP_BYTES = 1 << 16

# The largest pair. A pass of the DP over ``m`` gold characters runs each
# subword ``n = min(bound, m)`` steps and prices it at ``m`` spans a step, plus
# its lanes' bytes in the stream of counts (``m`` lanes of ``_lane_width``
# bytes a step) and its cost table (``ls + 1`` floats a step). A pair whose
# pass would price more raises ``AlignmentError``, so commands skip it: the
# unbounded retry of five one-letter subwords against 2000 letters, or one
# 1000-letter subword against 4000 letters.
MAX_PAIR_CELLS = 16_000_000
# A lane byte of one step costs about an eighth of a priced span: 6-7 ns
# against 57 ns (Python 3.11, one core of an Intel Xeon; spans of 60- to
# 100-word sentences, lanes of subwords of 16 to 1000 characters).
LANE_BYTES_PER_CELL = 8

# A command's CostTables keeps the cost rows of stripped subword lengths below
# this: the lengths of the 1-, 2- and 4-byte lanes, which hold every word of
# ordinary text. Longer subwords build their rows per pair.
STORED_LENGTHS = 32

_NEG = float("-inf")
_INF = float("inf")


class AlignmentError(ValueError):
    """No complete alignment exists (the gold text has no alignable characters)."""


def span_length_bound(subword_len: int) -> int:
    return SPAN_BOUND_BASE + SPAN_BOUND_PER_CHAR * subword_len


def _stored_steps(ls: int) -> int:
    """The steps that a command keeps for stripped length ``ls``: its span bound with a space."""
    return span_length_bound(ls + 1)


def _extended(costs: list[list[float]], ls: int, nsteps: int) -> list[list[float]]:
    """``costs`` with the cost rows of stripped length ``ls`` up to step ``nsteps`` appended.

    Row ``t`` holds, at ``c``, the weight of a span of trimmed length ``t``
    at edit distance ``d = c + |t - ls|``: 0.75 when ``d`` is 0, else ``0.5 *
    (1 - d / max(t, ls))``. The result is a new list; ``costs`` is unchanged.
    """
    rows = []
    for t in range(len(costs), nsteps + 1):
        top = t if t > ls else ls
        gap = 2 * top - t - ls  # |t - ls|
        rows.append([0.5 * (1.0 - d / top) if d else 0.75 for d in range(gap, gap + ls + 1)])
    return costs + rows


class CostTables(dict):
    """The cost rows of one command, per stripped length ``ls < STORED_LENGTHS``.

    A length's rows, steps 0 to ``_stored_steps(ls)``, are computed on its
    first read and then shared by every pair of the command. A pair that
    needs more steps (the unbounded retry, a subword with more spaces)
    extends them in a copy of its own (``_solve_dp``). So the tables hold at
    most 38,544 floats, the sum of ``_stored_steps(ls) * (ls + 1)`` over the
    stored lengths, whatever the corpus. A command creates one and drops it
    when it returns; no module keeps one.
    """

    def __missing__(self, ls: int) -> list[list[float]]:
        costs = self[ls] = _extended([[]], ls, _stored_steps(ls))
        return costs


def _peq(pattern: str) -> dict[str, int]:
    """Per character, the bit mask of its positions in ``pattern``."""
    peq: dict[str, int] = {}
    for k, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << k)
    return peq


def edit_distances(a: str, text: str):
    """Per character of ``text``, the unit-cost Levenshtein distance of ``a`` to ``text`` up to it.

    Myers (1999) with the global-distance boundary of Hyyro (2003): ``vp`` and
    ``vn`` hold the +1/-1 vertical deltas of the current DP column, one bit
    per character of ``a``, and each character of ``text`` advances the
    column in a constant number of integer operations. ``_lane_counts`` runs
    the same step on many columns at once, one per lane of a wider int; this
    generator prices every end of one span start in the read-back of
    ``_solve_dp``.
    """
    if not a:
        yield from range(1, len(text) + 1)
        return
    peq = _peq(a)
    mask = (1 << len(a)) - 1
    high = 1 << (len(a) - 1)
    vp, vn, dist = mask, 0, len(a)
    for ch in text:
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
        yield dist


class Alignment(NamedTuple):
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
    g, cuts = alignment_cuts(lead_gold)
    if not g.strip():
        raise AlignmentError("gold text contains only whitespace")
    normed = [alignment_normalize(t) for t in subwords]
    return lead_gold, g, cuts, normed


def align(
    subwords: Sequence[str], gold: str, cost_tables: CostTables | None = None
) -> Alignment:
    """Maximum-weight alignment of ``subwords`` to spans of ``gold``.

    Dynamic program over (subword index, gold offset): a subword is either
    skipped or consumes a span of up to ``span_length_bound`` characters;
    whitespace-only spans are never consumed and the gold text must be fully
    consumed except for trailing whitespace. Ties prefer skipping, then the
    shorter span for the earlier subword. If the length bound makes full
    consumption impossible the bound is lifted for that sentence.
    ``cost_tables`` shares the cost rows between the pairs of one command;
    without it the pair gets a fresh :class:`CostTables` of its own.
    """
    cost_tables = CostTables() if cost_tables is None else cost_tables
    lead_gold, g, cuts, normed = _prepare(subwords, gold)
    weight, norm_spans = _solve_dp(normed, g, cost_tables)
    spans = tuple((cuts[a], cuts[b]) for a, b in norm_spans)
    return Alignment(lead_gold, spans, weight)


def _solve_dp(
    normed: list[str], g: str, cost_tables: CostTables
) -> tuple[float, list[tuple[int, int]]]:
    """Best weight and spans over the normalized gold ``g``.

    Rows run from the last subword back; ``w_next[e]`` is the best weight of
    the later subwords over ``g[e:]``, and ``_row`` computes the row of one
    subword. Row ``i`` is exact at the offsets up to ``reach[i]``, the sum of
    the earlier subwords' span bounds, which are all that a cover from offset
    0 can give it. Only if the pass under the span bounds leaves ``g``
    uncovered does a pass with every bound lifted to ``len(g)`` run, over the
    same state. A pass that prices above ``MAX_PAIR_CELLS``, or no cover at
    all, raises ``AlignmentError``. Each row is kept as an ``array('d')``;
    the spans are recovered from them afterwards. A subword at offset ``j``
    is skipped when its row holds the same value as the next row there, else
    it takes the first end ``e`` whose weight plus ``w_next[e]`` gives that
    value. These are the tie rules: a span must beat skipping, and a longer
    span must beat a shorter one. One pass of ``edit_distances`` from ``p =
    nonspace[j]`` prices every end in turn with the rows' cost tables, as
    ``_row`` defines the weight: an end after a space keeps the weight of
    the last end before it, and the end ``j + len(s)`` weighs 1.0 where
    ``g`` holds ``s`` at ``j``.

    The cost rows of the pair, per stripped length, start as those of
    ``cost_tables`` for the lengths it keeps, and empty for longer ones; a row
    that needs more steps extends them in a copy that the pair alone holds,
    and the read-back reads the same lists. ``MAX_PAIR_CELLS`` prices every
    step's row, shared or not.
    """
    m = len(g)
    # nonspace[j]: the first offset at or after j that is not a space
    nonspace = list(range(m + 1))
    for j in range(m - 1, -1, -1):
        if g[j] == " ":
            nonspace[j] = nonspace[j + 1]
    # maximal runs of spaces as (first offset, length)
    runs = [(j, nonspace[j] - j) for j in range(m) if g[j] == " " and (j == 0 or g[j - 1] != " ")]
    longest = max((n for _, n in runs), default=0)
    # lanes at spaces start no span; +inf lets the cut drop them
    lanes = [_INF if ch == " " else _NEG for ch in g] + [_NEG]
    # per subword, the price of a step: m spans, m lanes' bytes, a table row
    lens = [len(s.strip()) for s in normed]
    # per stripped length, the rows the pair reads
    tables = {ls: cost_tables[ls] if ls < STORED_LENGTHS else [[]] for ls in set(lens)}
    prices = [m * (1 + _lane_width(ls) / LANE_BYTES_PER_CELL) + ls + 1 for ls in lens]
    for limits in ([span_length_bound(len(s)) for s in normed], [m] * len(normed)):
        if sum(min(limit, m) * price for limit, price in zip(limits, prices)) > MAX_PAIR_CELLS:
            raise AlignmentError(f"pair too large: {len(normed)} subwords, {m} gold characters")
        rows = [array("d", [0.0 if nonspace[j] == m else _NEG for j in range(m + 1)])]
        for s, limit, lo, hi, counts, at in _lane_plan(normed, g, limits, nonspace, longest):
            rows.append(_row(
                s, g, rows[-1], limit, lo, hi, counts, at, nonspace, runs, longest, lanes, tables
            ))
        if rows[-1][0] != _NEG:
            break
    else:
        raise AlignmentError("no complete alignment exists")
    rows.reverse()
    spans = []
    j = 0
    for s, value, w_next in zip(normed, rows, rows[1:]):
        e = j
        if value[j] != w_next[j]:
            stripped = s.strip()
            ls = len(stripped)
            costs = tables[ls]
            p = nonspace[j]
            exact = j + len(s) if g.startswith(s, j) else -1
            for e, d in enumerate(edit_distances(stripped, g[p:]), p + 1):
                if g[e - 1] != " ":  # an end after a space weighs what the end before it does
                    t = e - p
                    weight = costs[t][d - abs(t - ls)]
                if (1.0 if e == exact else weight) + w_next[e] == value[j]:
                    break
        spans.append((j, e))
        j = e
    return rows[0][0], spans


def _lane_width(ls: int) -> int:
    """Bytes per lane for a stripped subword of length ``ls``: a power of two above ``ls / 8``."""
    return 1 << max(0, ls.bit_length() - 3)


def _lane_plan(normed: list[str], g: str, limits: list[int], nonspace: list[int], longest: int):
    """Per subword from the last one back: ``(s, limit, lo, hi, counts, at)`` for ``_row``.

    **Windows.** Row ``i`` runs the lanes ``lo_i..hi_i-1`` for ``nsteps_i =
    min(limit_i, m)`` steps; this plan is the only place that sets them.
    ``hi_i`` comes from ``reach``. For ``lo_i``, let ``F_n`` be the first
    offset whose ``nonspace`` is ``m`` and ``F_i = max(0, F_{i+1} -
    limit_i)``: row ``i`` is ``-inf`` before ``F_i``, as a row is finite
    only where a skip or a span of at most ``limit_i`` reaches a finite
    value of the next row. A lane can rise above ``-inf`` only if an end
    within ``nsteps_i`` of it, or the spaces after that end, reach such a
    value, and a fold looks at most ``longest`` offsets ahead, so the row
    starts at ``lo_i = max(0, F_{i+1} - longest - nsteps_i)``, never after
    the first lane that can. The lanes before that one, if any, keep their
    starting value, which changes no value of the row.

    **Groups.** In DP order, a row joins the open group of its lane width
    ``B`` while the group's lanes times steps times ``B`` stay within
    ``GROUP_BYTES``, and takes a block of ``end_i - lo_i`` lanes, ``end_i =
    min(m, hi_i + nsteps_i - 1)``, so the match masks of the next block,
    shifted down one lane a step, never reach its live lanes. A row over the
    budget on its own is a group of one. A group's counts are one stream
    (``_lane_counts``, one byte string per step, lane ``p`` at byte ``at +
    p * B``) that ``itertools.tee`` splits into one copy per row, taken when
    the row runs and dropped after it. A step is computed when a row first
    reads it and freed once every copy has read it or gone, so a group's
    steps live until its last row, and a group of one streams: in the
    unbounded retry its steps would take ``O(m**2)`` bytes. A row whose
    pattern or window is empty reads zeros.
    """
    m = len(g)
    reach = list(accumulate(limits, initial=0))
    first = nonspace.index(m)  # F_n
    plan = []
    groups: dict[int, list] = {}  # per lane width, the open group: [blocks, lanes, steps]
    opened = []
    for i in range(len(normed) - 1, -1, -1):
        s, limit = normed[i], limits[i]
        stripped = s.strip()
        nsteps = min(limit, m)
        hi = min(m, nonspace[min(m, reach[i])] + 1)
        lo = max(0, first - longest - nsteps)
        first = max(0, first - limit)
        end = min(m, hi + nsteps - 1)
        group = None
        if stripped and lo < hi:
            B = _lane_width(len(stripped))
            group = groups.get(B)
            if group is None or (group[1] + end - lo) * max(group[2], nsteps) * B > GROUP_BYTES:
                group = groups[B] = [[], 0, 0]
                opened.append(group)
            group[0].append((stripped, lo, end))
            group[1] += end - lo
            group[2] = max(group[2], nsteps)
        plan.append((s, limit, lo, hi, group, (group[1] - end) * B if group else 0))
    for group in opened:  # becomes the copies of one stream, one for each of its rows
        group[:] = tee(_lane_counts(*group, g), len(group[0]))
    zeros = repeat(bytes(m))
    for s, limit, lo, hi, group, at in plan:
        yield s, limit, lo, hi, group.pop() if group else zeros, at


def _lane_counts(blocks: list[tuple[str, int, int]], lanes: int, steps: int, g: str):
    """Per gold character, the counts of the ``lanes`` lanes of ``blocks`` as one byte string.

    A block ``(stripped, lo, end)`` holds the lanes ``lo..end-1`` of one
    subword; lane ``p`` holds the Myers (1999) bit vectors ``vp``/``vn`` of
    the spans that start at ``g[p]``, with the global-distance boundary of
    Hyyro (2003), so a dozen big-int operations advance every lane by one
    character. A lane is ``W = 8 * B`` bits wide, and a pattern of length
    ``ls`` sits at bits ``W - 1 - ls`` to ``W - 2``: one ``high`` mask and
    one shift read the last bit of every pattern, the boundary bit enters at
    each pattern's first bit, and bit ``W - 1`` takes the carry of the
    addition. A block's match masks are one ``str.translate`` of
    ``g[lo:end]``, ``B`` latin-1 bytes a character; step ``k`` shifts them
    down ``k`` lanes. After ``t`` characters a lane's distance ``d`` lies in
    ``[|t - ls|, max(t, ls)]``, and its low bits count ``d - |t - ls|``, so
    the count changes by the distance's change plus one before step ``ls``
    of its block, and less one from then on. The counts come out through
    ``int.to_bytes``.
    """
    B = _lane_width(len(blocks[0][0]))
    W = 8 * B
    one = b"\x01" + bytes(B - 1)
    eqs, masks, firsts, flips = [], [], [], {}
    o = 0  # the block's first lane
    for stripped, lo, end in blocks:
        ls = len(stripped)
        n = end - lo
        shift = W - 1 - ls
        table = dict.fromkeys(map(ord, g[lo:end]), "\0" * B)
        for ch, v in _peq(stripped).items():
            table[ord(ch)] = (v << shift).to_bytes(B, "little").decode("latin-1")
        flips[ls] = flips.get(ls, 0) | int.from_bytes(one * n, "little") << (o * W)
        o += n
        eqs.append(g[lo:end].translate(table))
        masks.append((((1 << ls) - 1) << shift).to_bytes(B, "little") * n)
        firsts.append((1 << shift).to_bytes(B, "little") * n)
    eqs = int.from_bytes("".join(eqs).encode("latin-1"), "little")
    mask = int.from_bytes(b"".join(masks), "little")
    first = int.from_bytes(b"".join(firsts), "little")
    del masks, firsts
    adj = int.from_bytes(one * lanes, "little")
    high = adj << (W - 2)
    vp, vn, r = mask, 0, 0
    size = lanes * B
    for k in range(steps):
        if k in flips:
            adj -= 2 * flips[k]
        eq = eqs >> (k * W)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | ~(xh | vp)) & mask
        hn = vp & xh
        r += (((hp & high) - (hn & high)) >> (W - 2)) + adj
        hp = (hp << 1) | first
        vp = ((hn << 1) | ~(xv | hp)) & mask
        vn = hp & xv
        del eq, xv, xh, hp, hn  # the stream waits at the yield while its rows run
        yield r.to_bytes(size, "little")


def _advance(best: list[float], table: list[float], dists, tails: list[float]) -> list[float]:
    """One step of running maxima: lane ``p`` takes ``table[dists[p]] + tails[p]`` if larger."""
    return [x if x >= (y := table[c] + f) else y for x, c, f in zip(best, dists, tails)]


def _advance2(
    best: list[float], table: list[float], dists, tails: list[float],
    table2: list[float], dists2, tails2: list[float],
) -> list[float]:
    """``_advance`` by two steps, in one pass over the lanes."""
    return [
        (x if x >= (z := table2[c2] + f2) else z)
        if x >= (y := table[c] + f)
        else (y if y >= (z := table2[c2] + f2) else z)
        for x, c, f, c2, f2 in zip(best, dists, tails, dists2, tails2)
    ]


def _wide_counts(rb: bytes, a: int, b: int, B: int) -> list[int]:
    """The counts of the lanes at bytes ``a..b-1`` of ``rb``, ``B`` bytes each."""
    return [int.from_bytes(rb[i : i + B], "little") for i in range(a, b, B)]


def _row(
    s: str,
    g: str,
    w_next: array,
    limit: int,
    lo: int,
    hi: int,
    counts,
    at: int,
    nonspace: list[int],
    runs: list[tuple[int, int]],
    longest: int,
    lanes: list[float],
    tables: dict[int, list[list[float]]],
) -> array:
    """Best weight at every start offset up to ``reach`` for subword ``s`` followed by ``w_next``.

    The lanes ``lo..hi-1`` run, as ``_lane_plan`` sets them, and ``counts``
    yields the lane counts of each step, lane ``p`` at byte ``at + p * B``.

    A start ``j`` may skip ``s`` (``w_next[j]``) or give it a span ``g[j:e]``
    with ``nonspace[j] < e <= j + limit``. Such a span weighs 1.0 for an
    exact match (found with ``g.find``), else ``tables[ls][t][d - |t - ls|]``
    (``_extended``): 0.75 when ``d`` is 0, else ``0.5 * (1 - d / max(t, ls))``,
    where ``t`` is the length of ``g[p:e']`` (``p = nonspace[j]`` and ``e'``
    is ``e`` less its trailing spaces) and ``d`` its edit distance to the
    stripped subword.
    Surrounding spaces carry no evidence; counting them would let a shifted
    word boundary outweigh an in-word match.

    **Reach.** A cover from offset 0 gives this subword a start of at most
    ``reach``, the sum of the span bounds of the subwords before it, so only
    lanes up to ``nonspace[reach]`` run (``hi`` is one past it). The
    previous row reads this one only at its reachable starts and their ends,
    which lie within its own reach plus its bound: this row's ``reach``.
    Values past ``reach`` may fall short of the optimum; no read uses them,
    and ``sufmax`` over them still bounds every tail that a reachable start
    can take. The unbounded retry, where every bound is all of ``g``, prunes
    only the first row.

    **Lanes.** The distances of all starts ``p`` in the window advance
    together, one gold character per step, in a group of rows of the same
    lane width whose steps are computed as its rows first read them
    (``_lane_plan``); the row reads the counts of its live lanes from each
    step's bytes. The running best of every lane is one list, replaced by
    one comprehension per pass (``_advance``); nothing of a pass outlives it.

    **Fold.** An end just after a space costs what the end before the space
    costs, so a run of spaces is folded into the end before it:
    ``folds[l][e]`` is the best ``w_next`` over ``e`` and the first ``l``
    spaces after it, and ``-inf`` at an end after a space. The fold must not
    reach past the cap ``j + limit``, so a step ``l`` steps before the cap
    uses ``folds[l]`` (``folds[longest]``, all of every run, before that).
    No step is more than ``limit - 1`` steps before its cap, so the folds
    stop there, however long a run.
    A start ``d`` spaces before its lane has a cap ``d`` steps earlier: once
    that cap is within ``longest`` steps, it forks its own copy of the
    lane's running best (a track), which goes on with its own folds.

    **Two characters per pass.** While no cap is within ``longest`` steps
    of either of two steps, no track can fork and both use
    ``folds[longest]``, so the bit vectors advance twice and one
    comprehension (``_advance2``) takes both steps. The last lane of the
    first step may have no second step; it reads the ``-inf`` that pads each
    fold, and ``hi`` narrows for the second step before the cut reads it.

    **Cut.** Once a span is longer than the stripped subword (``glen > ls``)
    it costs at most ``0.5 * ls / glen``, so with ``sufmax[e]``, the best
    tail at ``e`` or later, no later end of a lane can give more than
    ``0.5 * ls / glen + sufmax[e]``. Lanes whose bound is below their best by
    more than 1e-9 (so a tie is never cut) leave the window of live lanes at
    either end, and the steps stop when it is empty. The cut runs after each
    pass, so a lane may stay one step longer than it needs, which is sound:
    a lane that the cut can drop cannot rise. The window starts no later
    than the first lane that an end with a finite tail can reach, and a
    lane before that one never rises. The cut stops once a
    track forks, which in the unbounded retry (every cap at the end of
    ``g``) happens only in the last steps, when few lanes are left.
    """
    m = len(g)
    ns = len(s)
    ls = len(s.strip())
    B = _lane_width(ls)
    nsteps = min(limit, m)
    forks = limit - 2 * longest  # the first step at which a track may fork
    paired = min(forks, nsteps)  # the steps before it go two to a pass
    w_next = w_next.tolist()  # one float object per offset, shared by the copies below
    sufmax = w_next + [_NEG]
    x = _NEG
    for e in range(m, -1, -1):
        if sufmax[e] < x:
            sufmax[e] = x
        else:
            x = sufmax[e]
    fold = w_next + [_NEG]
    for q, n in runs:
        fold[q + 1 : q + n + 1] = [_NEG] * n
    folds = [fold]
    depth = min(longest, limit - 1)  # no step reads a fold past the cap
    for l in range(1, depth + 1):
        fold = fold[:]
        for q, n in runs:
            if n >= l and w_next[q + l] > fold[q]:
                fold[q] = w_next[q + l]
        folds.append(fold)

    best = lanes[:]
    tracks: dict[int, list[float]] = {}
    half_ls = 0.5 * ls
    # costs[t][c]: the cost of step t for a lane that counts c
    costs = tables[ls]
    if len(costs) <= nsteps:  # more steps than it holds: a longer copy for this pair
        costs = tables[ls] = _extended(costs, ls, nsteps)
    k = 0
    while k < nsteps:
        hi = min(hi, m - k)  # lanes whose end p + k + 1 is still in g
        if lo >= hi:
            break
        a, b = at + lo * B, at + hi * B
        rb = next(counts)
        dists = rb[a:b:B] if ls < 256 else _wide_counts(rb, a, b, B)
        t = k + 1
        table = costs[t]
        if t < paired:  # steps k and k + 1 in one pass
            rb = next(counts)
            dists2 = rb[a:b:B] if ls < 256 else _wide_counts(rb, a, b, B)
            table2 = costs[t + 1]
            best[lo:hi] = _advance2(
                best[lo:hi], table, dists, fold[lo + t : hi + t],
                table2, dists2, fold[lo + t + 1 : hi + t + 1],
            )
            k = t
            t += 1
            hi = min(hi, m - k)
        else:
            if k >= forks:
                for d in range(1, min(longest, limit - 1 - k) + 1):
                    l = limit - 1 - d - k  # spaces left before the cap of a start d before its lane
                    if l < longest:
                        track = tracks.get(d)
                        if track is None:
                            track = tracks[d] = best[:]
                        tails = folds[l][lo + t : hi + t]
                        track[lo:hi] = _advance(track[lo:hi], table, dists, tails)
            tails = folds[min(limit - 1 - k, depth)][lo + t : hi + t]
            best[lo:hi] = _advance(best[lo:hi], table, dists, tails)
        if t + 1 > ls and not tracks:
            # drop finished lanes from both ends of the window
            bound = half_ls / (t + 1)
            while lo < hi and bound + sufmax[lo + t + 1] < best[lo] - 1e-9:
                lo += 1
            while lo < hi and bound + sufmax[hi + t] < best[hi - 1] - 1e-9:
                hi -= 1
        k += 1

    del sufmax, folds, fold, counts
    # from lanes to starts (a start at a space takes its lane's value), or a skip
    row = [x if x >= (y := best[p]) else y for x, p in zip(w_next, nonspace)]
    if tracks or longest >= limit:
        for q, n in runs:
            p = q + n
            for d, track in tracks.items():
                if n >= d:
                    x = w_next[p - d]
                    row[p - d] = x if x >= track[p] else track[p]
            if n >= limit:  # the caps of the first starts end before their lane
                row[q : p - limit + 1] = w_next[q : p - limit + 1]
    if ls:
        j = g.find(s)
        while j >= 0:
            exact = 1.0 + w_next[j + ns]
            if exact > row[j]:
                row[j] = exact
            j = g.find(s, j + 1)
    return array("d", row)
