"""
Refinements of geometric types.

Three constructions live here.  The binary refinement promotes every
horizontal strip to a rectangle of its own, which forces a 0/1 incidence
matrix.  The stable-boundary refinement cuts rectangles along the horizontal
lines carried by a family of periodic codes; its engine sorts the cut lines
of each rectangle by a kneading key (a finite signed strip sequence, held as
a byte string whose bytewise order is the kneading order), then
lays each strip's whole target block of bands end to end and splits every
rectangle's run of blocks at its cut lines.
The unstable-boundary refinement is the same construction run on the inverse
type, and the corner / bounded-period refinements are pipelines of the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import attrgetter, eq, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    GeoTypeError,
    GeometricType,
    HLabel,
    InvariantError,
    _Record,
    _branch_keys,
    _lex_columns,
    _lex_pairs,
    _rect_column,
    invert,
    require_valid,
    serialize,
)
from .boundary import _boundary_words, _checked_family, has_corner_property
from .shift import (
    AdmissibilityError,
    PeriodicCode,
    _key_codes,
    binary_branches,
    enumerate_orbits,
    incidence_matrix,
    min_rotation,
    primitive_root,
    require_binary,
    require_symbols,
)


class PeriodBoundError(GeoTypeError):
    """The requested period bound is below the boundary-code maximum."""


# -- binary refinement ----------------------------------------------------------


class BinRefinement(NamedTuple):
    refined: GeometricType
    label_map: tuple[HLabel, ...]  # position r-1 holds the source label (i, j)


def bin_refine(T: GeometricType) -> BinRefinement:
    """Promote horizontal strips to rectangles; the result is always binary.

    Rectangle r(i, j) inherits v_i vertical strips and h_k horizontal ones,
    where (k, l) = rho(i, j).  That is :func:`_blocks` with a cut at every
    strip edge: every strip is a band, and the block sizes are the refined h.
    """
    require_valid(T)
    refined = GeometricType._from_slots(*_blocks(T, T.h))
    require_valid(refined)
    return BinRefinement(refined, tuple(T.h_labels()))


def _blocks(T: GeometricType, tops: Sequence[int]) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """Block sizes and refined v, slots and eps when rectangle i of T is cut
    into ``tops[i - 1]`` bands (i, 1), ... bottom-up, numbered lexicographically.

    A band of i keeps v_i.  Strip x maps onto the full height of its target
    k at position l, so its block of ``sizes[x]`` refined strips is every
    band of k at l, reversed when e = -1.  Band m of k (m = 0, 1, ...) has
    its vertical strip l at refined slot ``shifts[k] + m * v_k`` past the
    slot of (k, l) in T, where ``shifts[k]`` moves k's first vertical slot
    in T to its first band's; so the block is a ``range`` over slots with
    step v_k, reversed when e = -1.  The blocks run in strip order.
    """
    ks = _rect_column(T.v, T._slots)
    counts, bands = (0, *T.v), (0, *tops)
    widths = (0, *map(mul, tops, T.v))  # refined vertical slots of k's bands
    shifts = (0, *map(sub, accumulate(widths[1:], initial=0), accumulate(T.v, initial=0)))
    slots: list[int] = []
    for slot, k, e in zip(T._slots, ks, T.eps):
        low = slot + shifts[k]
        block = range(low, low + widths[k], counts[k])
        slots.extend(block if e == 1 else reversed(block))
    block_sizes = tuple(map(bands.__getitem__, ks))
    eps = tuple(chain.from_iterable(map(repeat, T.eps, block_sizes)))
    v = tuple(chain.from_iterable(map(repeat, T.v, tops)))
    return block_sizes, v, tuple(slots), eps


# -- the interval order engine ---------------------------------------------------


class IntervalRef(_Record):
    """The stable line carried by iterate t of a pointed periodic code."""

    _fields = ("t", "code")

    def __init__(self, t: int, code: PeriodicCode) -> None:
        if not (0 <= t < code.period):
            raise ValueError("iterate index must lie in 0..period-1")
        self._set_fields(t, code)

    @property
    def host(self) -> int:
        return self.code.symbol(self.t)


def _pack(digits: Iterable[int], width: int) -> bytes:
    """Digits as ``width``-byte big-endian unsigned integers, end to end."""
    if width == 1:
        return bytes(digits)
    return b"".join(map(int.to_bytes, digits, repeat(width), repeat("big")))


def _pack_keys(
    T: GeometricType, steps: Sequence[int], bounds: Sequence[int], span: int
) -> list[bytes]:
    """The kneading keys of ``span`` digits of every phase of codes of T,
    code after code and phase by phase, from their steps' signed strips:
    ``steps[bounds[f]:bounds[f + 1]]`` holds e_m * j_m for the p steps of
    code f in order.

    The key of phase t is the signed strip sequence of its cut line: symbol
    m is delta_m * j_m, where j_m is the strip that step t + m of the code
    runs through and delta_m the orientation product of the m steps before
    it.  Each symbol s is stored as the digit H + s, with H the largest h_i
    of T, in a fixed number of big-endian bytes: one while 2H < 256.  Every
    digit lies in 0..2H, so the bytewise (memcmp) order of two keys of T is
    the lexicographic order of their symbols.
    One period of the sequence of phase 0 is walked once; symbol m is
    delta_{m+1} * e_m * j_m.  That period is packed once, and once
    negated (digit 2H - d); the sequence has period p, or 2p (the period,
    then its negation) when the orientation product over one period is -1.
    Each is repeated to the p + span digits that every phase needs.  The
    key of phase t is the slice of digits [t, t + span), of the negated
    sequence when the orientation product delta_t of the first t steps is
    -1; delta_t is the sign of symbol t, since every strip index j is
    positive.
    """
    H = max(T.h)
    width = (2 * H).bit_length() + 7 >> 3
    size = span * width
    keys: list[bytes] = []
    for a, b in zip(bounds, bounds[1:]):
        digits: list[int] = []
        delta = 1
        for j in steps[a:b]:
            if j < 0:
                delta = -delta
            digits.append(H + delta * j)
        up = _pack(digits, width)
        down = _pack(map(sub, repeat(2 * H), digits), width)
        if delta == -1:
            up, down = up + down, down + up  # the sequence has period 2p
        copies = -(-(b - a + span) * width // len(up))
        up, down = up * copies, down * copies
        starts = range(0, (b - a) * width, width)
        keys += [(up if d > H else down)[o : o + size] for o, d in zip(starts, digits)]
    return keys


class OrderTable(_Record):
    """Per-rectangle vertical order of the cut lines, sentinels implicit.

    The cut lines of the family are numbered by flat cut ids: phase t of
    ``family[f]`` is cut c = (the phases of the codes before f) + t, so the
    successor phase of cut c is cut c + 1, except at the last phase of a
    code.  ``cuts[i - 1]`` lists the cut ids of rectangle i from the bottom
    up.  Position 0 is the bottom edge (i, -1) and position count+1 the top
    edge (i, +1); the cut line at table position p (1-based) sits p-th from
    the bottom.  ``steps[c]`` is the signed strip e * j that the step of
    cut c runs through, from the family check; a function of the type and
    the family, it is out of ``==``, ``hash`` and ``repr``.  The interval
    references of the rows (:attr:`entries`) are a view built on demand.
    The table keeps only what the sort found: the cut marks that band
    assembly cuts at and a recode bisects are kept on the result
    (``RefinementResult._marks``).
    """

    _fields = ("family", "cuts")

    def __init__(
        self, family: tuple[PeriodicCode, ...], cuts: tuple[tuple[int, ...], ...], steps: list[int]
    ) -> None:
        self._set_fields(family, cuts)
        object.__setattr__(self, "steps", steps)

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """``_starts[f]`` is the cut id of phase 0 of ``family[f]``; the last
        entry is the number of cuts."""
        return tuple(accumulate((code.period for code in self.family), initial=0))

    @cached_property
    def entries(self) -> tuple[tuple[IntervalRef, ...], ...]:
        """The cut lines of every rectangle as interval references."""
        refs = [IntervalRef(t, code) for code in self.family for t in range(code.period)]
        return tuple(tuple(map(refs.__getitem__, row)) for row in self.cuts)


def build_order(T: GeometricType, W, *, drop_boundary: bool = False) -> OrderTable:
    """Validate a cutting family and sort its cut lines rectangle by rectangle.

    The vertical order of two cut lines with a common host rectangle is the
    twisted lexicographic (kneading) order of Milnor and Thurston, *On
    iterated maps of the interval* (1988): a line lies below another exactly
    when its kneading key (:func:`_pack_keys`) is smaller.  Up to the first
    time at which the two codes disagree they run through the same strips,
    so their keys first differ where the strips differ, signed by the common
    orientation product of the steps before.  The keys have periods 2p_a and
    2p_b, so by Fine and Wilf two distinct ones differ within 2p_a + 2p_b -
    gcd(2p_a, 2p_b) symbols, and keys of length 2(p_a + p_b) decide the
    order exactly.  Every cut is sorted by its key of length 4P, where P is
    the longest period in the family, which is that length for every pair.
    The keys are byte strings whose bytewise order is the kneading order,
    with a digit width fixed by T's largest h, so cuts are sorted by
    ``bytes`` comparison, all cuts of the family in one sort
    (:func:`_sort_cuts`).  The keys of all phases of a code come from one
    walk of its orbit, which reads the strips of its steps off the family's
    step column: the family check looks each step up in T's branch table
    once (``boundary._checked_family``), and the table keeps the values as
    ``steps`` for the keys and the cut marks (:func:`_cut_marks`), which
    band assembly cuts at and a recode bisects.  The sort is the only
    reader of kneading keys: a recode places a code by its steps alone.
    The family check costs O(sum of periods) past T's branch and gamma
    tables (O(alpha), once per type object), the keys O(cuts * P) and the
    sort O(cuts * log cuts) comparisons.
    """
    return _sort_cuts(T, *_checked_family(T, W, drop_boundary=drop_boundary))


def _sort_cuts(T: GeometricType, family: tuple[PeriodicCode, ...], steps: list[int]) -> OrderTable:
    """:func:`build_order` past the family check, which also shows T valid
    and binary, given the family's step column (for ``u_refine``, the
    unstable check on the type T inverts, whose lookups walk the reversed
    codes on T's branch table: the inverse's incidence matrix is the
    transpose).

    The table keeps the column, and the keys of all codes are packed off it.
    Every cut id of the family (:class:`OrderTable`) is sorted at once, by
    kneading key and then, stably, by host rectangle, the cut's own symbol;
    each rectangle's row is then one run of the sorted ids.  Two neighbours
    in one run with equal keys would be one line cut twice, which a checked
    family never has.  An empty family returns before any key or row work.
    """
    if not family:
        return OrderTable(family, ((),) * T.n, steps)
    words = list(map(attrgetter("word"), family))
    span = 4 * max(map(len, words))
    keys = _pack_keys(T, steps, list(accumulate(map(len, words), initial=0)), span)
    hosts = list(chain.from_iterable(words))
    ids = sorted(range(len(keys)), key=keys.__getitem__)
    ids.sort(key=hosts.__getitem__)
    ranked = list(map(keys.__getitem__, ids))
    for p in compress(count(), map(eq, ranked, islice(ranked, 1, None))):
        if hosts[ids[p]] == hosts[ids[p + 1]]:
            raise InvariantError("two cut lines of the family have equal kneading keys")
    hosts.sort()  # now the host of each sorted id
    bounds = list(map(bisect_left, repeat(hosts), range(1, T.n + 2)))
    rows = map(tuple(ids).__getitem__, map(slice, bounds, bounds[1:]))
    return OrderTable(family, tuple(rows), steps)


# -- refinement results -----------------------------------------------------------


class RefinementResult(_Record):
    """A refined type plus the bookkeeping that produced it.

    Single-stage results carry the order table, and their label map
    r <-> (i, s) is a view of it; pipeline results chain stages and carry
    only the final type.  For 'u' results the bookkeeping refers to the
    stable-side run on the inverse type (rectangle labels r agree).
    """

    _fields = ("refined", "source", "kind", "order", "stages")

    def __init__(
        self,
        refined: GeometricType,
        source: GeometricType,
        kind: str,  # 's' | 'u' | 'pipeline'
        order: OrderTable | None = None,
        stages: tuple["RefinementResult", ...] = (),
    ) -> None:
        self._set_fields(refined, source, kind, order, stages)

    @cached_property
    def label_map(self) -> tuple[tuple[int, int], ...] | None:
        """Position r - 1 holds (i, s) when refined rectangle r is band s of
        source rectangle i: the bands, one more per rectangle than its cut
        lines, numbered lexicographically.  Built on first read off the
        order table's rows; ``None`` for pipeline results."""
        if self.order is None:
            return None
        return tuple(_lex_pairs([len(row) + 1 for row in self.order.cuts]))

    @cached_property
    def _band_starts(self) -> tuple[int, ...]:
        """``_band_starts[i - 1]`` counts the bands of the rectangles before i."""
        return tuple(accumulate((len(row) + 1 for row in self.order.cuts), initial=0))

    # -- recoding ------------------------------------------------------------

    def recode(self, code: PeriodicCode) -> frozenset[PeriodicCode]:
        """Codes of the refined type shadowing a periodic code of the source.

        A cut code yields its two flanking rectangle codes (just below and
        just above the cut line); any other admissible periodic code yields
        the single code of the rectangles its orbit passes through.
        """
        require_symbols(self.source.n, code.word)
        if self.kind == "pipeline":
            current = {code}
            for stage in self.stages:
                current = {new for c in current for new in stage.recode(c)}
            return frozenset(current)
        if self.kind == "u":
            reversed_out = self.stages[0].recode(code.reversed_pointed())
            return frozenset(c.reversed_pointed() for c in reversed_out)
        return self._recode_s(code)

    def _recode_s(self, code: PeriodicCode) -> frozenset[PeriodicCode]:
        """Lift the code through the order table, one rule for every code.

        Its steps are looked up in the source's branch table in one pass,
        which also checks it admissible; an empty family cuts nothing, so
        the code is its own recode.  Otherwise a step of host i runs through
        a strip x whose block in the run of blocks holds every band of the
        successor rectangle, in reverse when e = -1, so a point whose image
        lies in band t of the successor sits at offset ``runs[x] + t``, or
        ``runs[x + 1] + 1 - t`` when e = -1.  The cut marks of band assembly
        (:attr:`_marks`) below that offset are the cut lines of i below the
        point: one bisection of i's marks.  Walked backward over one period
        of the code, or two when the orientation product over a period is
        -1, the rule maps the bands of the first host monotonically into
        themselves.  Iterated from the bottom band and from the top band, it
        reaches its least and greatest fixed points (Tarski, 1955): the two
        flanks of a cut line, or the one band of any other code.  Each start
        must move one way only, up from the bottom and down from the top, so
        the iteration ends; a start that turns back raises ``InvariantError``.
        The bands of each final walk spell a refined word; its primitive
        root, a word of refined rectangle numbers, is a code built with no
        check.
        """
        if self.kind != "s" or self.order is None:
            raise InvariantError("only stable results with an order table recode directly")
        T, word = self.source, code.word
        steps = list(map(binary_branches(T).get, _branch_keys(T.n, word, word[1:] + word[:1])))
        if not all(steps):
            raise AdmissibilityError(f"code {code} is not admissible for this type")
        if not self.order.family:
            return frozenset({code})
        marks, runs = self._marks
        starts, offsets = self._band_starts, T._offsets
        walk = []  # (offset of band 0, e, host's first mark, its end, host) per step, last first
        for i, step in zip(reversed(word), reversed(steps)):
            x = offsets[i - 1] + abs(step) - 1
            base, e = (runs[x], 1) if step > 0 else (runs[x + 1] + 1, -1)
            walk.append((base, e, starts[i - 1] - i + 1, starts[i] - i, i))
        if sum(step < 0 for step in steps) % 2:
            walk *= 2
        words = set()
        first = word[0]
        for s, up in ((1, True), (starts[first] - starts[first - 1], False)):
            while True:
                bands, t = [], s  # t is a band of the current host, numbered within it
                for base, e, lo, hi, i in walk:
                    q = bisect_left(marks, base + e * t, lo, hi)  # the cuts below the point
                    bands.append(q + i)  # the refined rectangle: a band more than cuts per rectangle
                    t = q - lo + 1
                if t == s:
                    break
                if (t > s) != up:
                    raise InvariantError(f"the walk of code {code} is not monotone")
                s = t
            words.add(primitive_root(bands[::-1]))
        return frozenset(map(PeriodicCode._of, words))

    @cached_property
    def _marks(self) -> tuple[list[int], Sequence[int]]:
        """The cut marks (:func:`_cut_marks`) and the block starts ``runs``
        they are read against, kept on the result, never on the table or a
        type.  Band assembly hands over the ones it cut at, so they are built
        here, on the first recode, only for a result made otherwise, such as
        one built directly from an order table.  Strip x's block holds one
        band per cut line of its target rectangle, plus one, and starts at
        ``runs[x]``.  The marks increase, rectangle after rectangle, so the
        marks of rectangle i are ``marks[lo:hi]``, with lo the cuts of the
        rectangles before i.
        """
        order, T = self.order, self.source
        bands = (0, *(len(row) + 1 for row in order.cuts))
        runs = list(accumulate(map(bands.__getitem__, _rect_column(T.v, T._slots)), initial=0))
        return _cut_marks(T, order, runs), runs


def s_refine(T: GeometricType, W, *, drop_boundary: bool = False) -> RefinementResult:
    """Cut each rectangle along the stable lines of all iterates of W.

    Strip (i, j) maps onto the full height of its target rectangle k, so
    its refined strips, read bottom-up, are every band of k, in reverse when
    e = -1, whatever the cuts are.  The refined rho and eps are these whole
    target blocks laid end to end in lexicographic order, and the cut lines
    of rectangle i only split its run of blocks into bands.  So the
    refinement is :func:`build_order`, then band assembly on its table
    (:func:`_assemble`).  A family that cuts nothing (empty once boundary
    codes are dropped) returns T itself as ``refined``, not an equal copy.
    """
    return _assemble(T, build_order(T, W, drop_boundary=drop_boundary))


def _assemble(T: GeometricType, order: OrderTable) -> RefinementResult:
    """:func:`s_refine` past :func:`build_order`, in O(cuts) steps.

    :func:`_blocks` lays out the slots and eps, a rectangle having one band
    more than cut lines, and the cut marks (:func:`_cut_marks`) split each
    rectangle's run of blocks into bands, reading the table's step column.
    The marks must strictly increase within a rectangle, which also leaves
    no band, and no piece of a strip, empty.  The result keeps the marks
    and block starts as its ``_marks``, which a recode bisects.  An empty
    family cuts nothing, so the refined type is T itself, with every table
    already kept on it.
    """
    if not order.family:
        return RefinementResult(T, T, "s", order)
    tops = [len(row) + 1 for row in order.cuts]
    sizes, v_new, slots, eps = _blocks(T, tops)
    runs = tuple(accumulate(sizes, initial=0))  # strip x's block starts at runs[x]
    cut_marks = _cut_marks(T, order, runs)
    ends = iter(cut_marks)
    marks = [0]  # band edges in the run of blocks, bottom-up, rectangle by rectangle
    for top, end in zip(tops, T._offsets[1:]):
        marks.extend(islice(ends, top - 1))
        marks.append(runs[end])
    h_new = tuple(map(sub, marks[1:], marks))
    if min(h_new) < 1:
        band = next(b for b, length in enumerate(h_new) if length < 1)
        i = bisect_right(tuple(accumulate(tops)), band) + 1
        raise InvariantError(f"cut lines of rectangle {i} are out of order")

    refined = GeometricType._from_slots(h_new, v_new, slots, eps)
    require_binary(refined)  # postcondition: the refined type is valid and binary
    result = RefinementResult(refined, T, "s", order)
    result.__dict__["_marks"] = cut_marks, runs
    return result


def _cut_marks(T: GeometricType, order: OrderTable, runs: Sequence[int]) -> list[int]:
    """Each cut line's mark, its offset in the run of blocks, in table order.

    A cut line of rectangle i lies in the strip j that maps into its
    successor's rectangle, at the successor's table position p, and
    ``order.steps[c]`` holds e * j for cut c.  Its mark is p past the
    start of j's block (``runs[x]`` for source strip x), or p before its
    end when e = -1.  The p-th cut of a row from the bottom has position p,
    written once off the rows by cut id; the successor of cut c is cut
    c + 1, or the code's first cut at its last phase.
    """
    ranks = [0] * len(order.steps)
    for c, p in zip(chain.from_iterable(order.cuts), _lex_columns(list(map(len, order.cuts)))[1]):
        ranks[c] = p
    after = ranks[1:]  # the successor's position, by cut id
    after.append(0)
    starts = order._starts
    for start, end in zip(starts, starts[1:]):
        after[end - 1] = ranks[start]
    marks: list[int] = []
    for first, row in zip(T._offsets, order.cuts):
        marks += [
            runs[first + j - 1] + p if j > 0 else runs[first - j] - p
            for j, p in zip(map(order.steps.__getitem__, row), map(after.__getitem__, row))
        ]
    return marks


def u_refine(T: GeometricType, W, *, drop_boundary: bool = False) -> RefinementResult:
    """Cut along unstable lines: the stable refinement of the inverse type.

    Code words are reversed before feeding the inverse side, since forward
    time for the inverse is backward time for the original.  The family is
    checked once, as an unstable family of T (``boundary._checked_family``),
    whose one lookup pass walks the reversed codes on the inverse's branch
    table: reversal keeps the family a cutting family of the inverse, and
    the column that pass returns is the inner order table's.  T's own
    branch table is never built, and an empty family builds none at all.
    A family that cuts nothing returns T itself as ``refined``, not
    ``invert(invert(T))``, which would be a fresh equal copy.
    """
    family, steps = _checked_family(T, W, unstable=True, drop_boundary=drop_boundary)
    reversed_family = tuple(w.reversed_pointed() for w in family)
    inverse = invert(T)
    inner = _assemble(inverse, _sort_cuts(inverse, reversed_family, steps))
    return RefinementResult(
        refined=invert(inner.refined) if family else T,
        source=T,
        kind="u",
        order=inner.order,
        stages=(inner,),
    )


# -- pipelines ---------------------------------------------------------------------


def _pipeline(T: GeometricType, stages: tuple[RefinementResult, ...]) -> RefinementResult:
    refined = stages[-1].refined if stages else T
    return RefinementResult(refined=refined, source=T, kind="pipeline", stages=stages)


def corner_refine(T: GeometricType) -> RefinementResult:
    """Restore the corner property by an s-pass then a u-pass.

    First cut along the boundary periodic codes that are not yet stable
    boundary (they are the unstable-only ones), then cut the intermediate
    type along its own stable boundary codes that are not yet unstable
    boundary.

    The order of the passes matters: an s-pass then a u-pass differs from
    the u-pass then the s-pass.  A u-cut of rectangle i crosses every s-band
    of i, but after the s-pass the recoded u-orbit cuts only the bands that
    hold its points.  On E2, s along (1 2) then u along the recode of
    (1 2 2), and the other order, both give n = 7 and alpha = 15, with
    different h multisets.  Each pass cuts along the key codes of those
    orbits, sorted by (period, word).  On a type with the corner property
    both families are empty, so neither pass builds a branch table.
    """
    stage1 = s_refine(T, _key_codes(_boundary_words(T, True) - _boundary_words(T, False)))
    T1 = stage1.refined
    stage2 = u_refine(T1, _key_codes(_boundary_words(T1, False) - _boundary_words(T1, True)))
    return _pipeline(T, (stage1, stage2))


def corner_refine_along(T: GeometricType, W) -> RefinementResult:
    """Cut along W, then corner-refine; boundary members of W cut nothing.

    The first pass's refined type gets both sides' boundary key words by
    transport (:func:`_transport_boundary`), read off its cut lines and the
    recodes of T's boundary, so neither its gamma table nor its inverse's
    is built for them.  A pass that cuts nothing returns T itself, whose
    words are already kept.
    """
    if not has_corner_property(T):
        raise GeoTypeError("corner refinement along a family needs the corner property")
    stage1 = s_refine(T, W, drop_boundary=True)
    if stage1.refined is not T:
        _transport_boundary(stage1)
    inner = corner_refine(stage1.refined)
    return _pipeline(T, (stage1,) + inner.stages)


def _transport_boundary(stage: RefinementResult) -> None:
    """Keep the boundary key words of a stable pass's refined type on it,
    read off the pass rather than walked.  Cutting along a family carries
    the old boundary over and adds the two sides of every cut line (Lind and
    Marcus, *Symbolic Dynamics and Coding*, 1995, section 6.4): the s-side
    is the flank words of the cut lines (:func:`_flank_words`) and the
    recodes of the source's s-boundary orbits, the u-side the recodes of its
    u-boundary orbits.  Each orbit of the union of the two sides is recoded
    once, and each side is read off that one map: on a source with the
    corner property, as every ``corner_refine_along`` source has, the two
    sides are one set of orbits.  A recode is a primitive root, keyed by its
    least rotation alone.  The recodes bisect the cut marks band assembly
    handed over."""
    source, kept = stage.source, stage.refined._boundary_words
    s_words, u_words = _boundary_words(source, False), _boundary_words(source, True)
    recoded = {
        code.word: [min_rotation(shadow.word) for shadow in stage.recode(code)]
        for code in _key_codes(s_words | u_words)
    }
    kept[False] = frozenset(chain(_flank_words(stage), *map(recoded.__getitem__, s_words)))
    kept[True] = frozenset(chain.from_iterable(map(recoded.__getitem__, u_words)))


def _flank_words(stage: RefinementResult) -> Iterator[tuple[int, ...]]:
    """The orbit key words of the refined rectangles just below and just
    above the cut lines of a stable pass, in one pass over its order table.

    The cut at table position p of host i lies between refined rectangles
    ``_band_starts[i - 1] + p`` and the next; that is k + i, with k its
    0-based place in the table's rows laid end to end.  One step of a code
    maps the band just below its line into the band just below the next
    line, or just above it after a step through an orientation-reversing
    strip, negative in the step column.  So the lower and the upper flank
    swap after every such step, and over one period a code gives two words,
    or one word of length 2p, lower then upper, when its orientation product
    is -1.  Every word maps onto the code's primitive word, or onto that
    word twice with halves that differ, so it is primitive by construction
    and keyed by its least rotation alone.
    """
    order = stage.order
    hosts = list(chain.from_iterable(map(attrgetter("word"), order.family)))
    below = [0] * len(hosts)  # by cut id, the refined rectangle just below the cut
    for k, c in enumerate(chain.from_iterable(order.cuts)):
        below[c] = k + hosts[c]
    steps, starts, words = order.steps, order._starts, []
    for a, b in zip(starts, starts[1:]):
        lower, upper, flip = [], [], False
        for r, step in zip(below[a:b], steps[a:b]):
            lower.append(r + flip)
            upper.append(r + 1 - flip)
            flip ^= step < 0
        words += [lower + upper] if flip else [lower, upper]
    return map(min_rotation, words)


def wp_refine(T: GeometricType, P: int) -> RefinementResult:
    """Put every periodic orbit of period <= P on refined rectangle corners.

    This is not incremental in P: ``corner_refine_along`` on the result for
    P, along the recodes of the new period-(P + 1) orbits, gives the same n
    and boundary-orbit periods as the result for P + 1, but a different
    type.  On E2 at P = 3 -> 4 both have n = 62, but alpha is 130 against
    126 for ``wp_refine(E2, 4)``, and the h multisets differ.
    """
    if not has_corner_property(T):
        raise GeoTypeError("bounded-period refinement needs the corner property")
    p_bound = max(map(len, _boundary_words(T, False)))
    if P < p_bound:
        raise PeriodBoundError(f"P below P_B(T)={p_bound}")
    orbits = enumerate_orbits(incidence_matrix(T), P)
    return corner_refine_along(T, [o.canonical for o in orbits])


# -- serialization ------------------------------------------------------------------


def serialize_result(result: RefinementResult) -> str:
    """Canonical text block: refined type, then LABEL / ORDER / CUT lines.

    Pipelines serialize the refined type only; the per-stage tables are stage
    objects, not attributes of the composite.  Each cut id's text is built
    once, with one orbit id per family code.
    """
    out = serialize(result.refined)
    if result.kind == "pipeline" or result.order is None:
        return out
    order = result.order
    texts: list[str] = []  # the text "(t,<orbit id>)" of each cut id
    for code in order.family:
        orbit = ".".join(map(str, code.orbit().canonical.word))
        texts += [f"({t},{orbit})" for t in range(code.period)]
    rows = [list(map(texts.__getitem__, row)) for row in order.cuts]
    lines = [f"LABEL {r}=({i},{s})" for r, (i, s) in enumerate(result.label_map, start=1)]
    for i, row in enumerate(rows, start=1):
        lines.append(" ".join([f"ORDER {i} : ({i},-)", *row, f"({i},+)"]))
    for i, row in enumerate(rows, start=1):
        lines += [f"CUT {text} host={i} pos={pos}" for pos, text in enumerate(row, start=1)]
    return out + "\n".join(lines) + ("\n" if lines else "")
