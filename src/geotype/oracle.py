"""
Exact-rational piecewise-affine realization of a geometric type.

Every rectangle becomes the unit square; horizontal strip j of square i is
[0,1] x [(j-1)/h_i, j/h_i] and is sent onto vertical strip l of square k by
an affine map that contracts horizontally by 1/v_k, expands vertically by
h_i, and flips vertically exactly when eps = -1.  All arithmetic is exact
and on integers: the model holds its strip maps as flat integer columns
(a, b, k, l), one entry per strip, and an orbit's cut heights are integer
numerators over the orbit's one denominator |1 - A|, never reduced.
The columns are the whole model: nothing re-presents them per strip.
``fractions.Fraction`` values are made only where a caller reads them: the
point of :func:`periodic_point`, ``OracleRefinement.cut_heights`` and the
SVG's cut lines.

The module recomputes stable-boundary refinements geometrically (cut heights
as fixed points; each strip's edges and cut heights pushed once through its
monotone strip map onto the cut grids) and writes the refined type's
vertical slots from its own band numbering.  Every height one refinement
touches, cut height, strip edge j/h_i or image of either under a strip map,
is compared as one integer key floor(y * 2^K) on a single scale per call
(:func:`_height_keys`), so no height is reduced and no pair is built per
mark.  It is kept free of the formula engine in ``refine`` so the two can
check each other.
The two share only their input checks: the type's in ``core`` and ``shift``,
and the cutting family's in :func:`boundary.cutting_family`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import floordiv, lshift, lt, mul
from typing import Iterable, Iterator, NamedTuple

from .core import (
    GeoTypeError,
    GeometricType,
    _Record,
    _branch_keys,
    _lex_columns,
    _targets,
    require_valid,
)
from .shift import AdmissibilityError, NonBinaryError, PeriodicCode, require_symbols
from .boundary import cutting_family


class TieError(GeoTypeError):
    """Two distinct cut lines landed on the same height: a deduplication bug."""


class RationalPoint(NamedTuple):
    square: int
    x: Fraction
    y: Fraction


class AffineModel(_Record):
    """The strip maps of ``source`` as integer columns in the lexicographic
    order of its strips: strip x, the x-th label (i, j) counted from 0, maps
    by y -> a[x] y + b[x] and x -> (x + l[x] - 1) / v_k onto the vertical
    strip (k[x], l[x])."""

    _fields = ("source", "a", "b", "k", "l")

    def __init__(self, source: GeometricType, a: tuple, b: tuple, k: tuple, l: tuple) -> None:
        self._set_fields(source, a, b, k, l)

    @cached_property
    def _branches(self) -> dict[int, int]:
        """The step table ``{i * (n + 1) + k: x}``, keyed like
        ``core._branch_keys``: the strip x of square i into square k, or
        minus the number of such strips when there are more than one.  A key
        names its step only for 1 <= i, k <= n: :func:`_orbit_walk` checks a
        word's symbols when one of its steps misses."""
        n = self.source.n
        keys = list(_branch_keys(n, _lex_columns(self.source.h)[0], self.k))
        table = dict(zip(keys, range(len(keys))))
        if len(table) < len(keys):
            counts = dict.fromkeys(keys, 0)
            for key in keys:
                counts[key] += 1
            table.update((key, -c) for key, c in counts.items() if c > 1)
        return table


def realize(T: GeometricType) -> AffineModel:
    """The affine model of a valid type: a = eps * h_i, and b = 1 - j for
    eps = +1 or j for eps = -1, so that y -> ay + b sends strip (i, j) onto
    [0, 1]; k and l are read off T's slots."""
    require_valid(T)
    a = tuple(map(mul, T.eps, chain.from_iterable(map(repeat, T.h, T.h))))
    b = tuple([1 - j if e == 1 else j for j, e in zip(_lex_columns(T.h)[1], T.eps)])
    k, l = zip(*_targets(T.v, T._slots))
    return AffineModel(T, a, b, k, l)


def _orbit_walk(model: AffineModel, code: PeriodicCode) -> tuple[list[int], int, list[int]]:
    """The strip indices of ``code``'s orbit and its cut heights, phase by
    phase, as ``(steps, den, nums)``: the height at phase t is nums[t] / den.

    Every phase's height comes from one fixed point: y_0 = B / (1 - A) of
    the period's composed vertical map y -> Ay + B, pushed once around the
    cycle by y_{t+1} = a_t y_t + b_t.  The walk checks that y_t lies in
    strip (i_t, j_t) and that it returns to y_0.  The slope A is the same
    at every phase, so a height is undetermined (A = 1, B = 0) or missing
    (A = 1, B != 0) at every phase alike.  All heights share the
    denominator den = |1 - A| > 0, so the walk runs on integer numerators
    and leaves them unreduced: no gcd is taken.

    The steps are read in C, by one ``map`` over the model's step table.
    Only a code with a step that misses the table (-1) or has c >= 2 strips
    (-c) is checked further, in Python: its symbols for the range 1..n,
    then the first such step in word order names the error.  A symbol past
    n needs no check up front, since it is the row of its own step, whose
    key lies above every key of the table.
    """
    word = code.word
    T = model.source
    n = len(T.h)
    succ = word[1:] + word[:1]
    steps = list(map(model._branches.get, _branch_keys(n, word, succ), repeat(-1)))
    if min(steps) < 0:
        # a symbol past n misses the table as the row of its own step
        require_symbols(n, word)
        i, k, x = next(step for step in zip(word, succ, steps) if step[2] < 0)
        if x == -1:
            raise AdmissibilityError(f"square {i} has 0 strips into square {k}")
        raise NonBinaryError(f"square {i} has {-x} strips into square {k}")
    a_col, b_col = model.a, model.b
    A, B = 1, 0
    for x in steps:
        a = a_col[x]
        A, B = a * A, a * B + b_col[x]
    if A == 1:
        if B == 0:
            raise GeoTypeError("vertical cut height undetermined: no expansion along cycle")
        raise GeoTypeError("vertical holonomy has no fixed point")
    den, num = (1 - A, B) if A < 1 else (A - 1, -B)
    offsets, h = T._offsets, T.h
    nums: list[int] = []
    for i, x in zip(word, steps):
        j = x - offsets[i - 1] + 1
        # (j - 1) / h_i <= num / den <= j / h_i, with den > 0
        if not (j - 1) * den <= num * h[i - 1] <= j * den:
            raise GeoTypeError(f"cut height {Fraction(num, den)} escapes strip ({i},{j})")
        nums.append(num)
        num = a_col[x] * num + b_col[x] * den
    if num != nums[0]:
        raise GeoTypeError("cut height is not periodic under the strip maps")
    return steps, den, nums


def periodic_point(model: AffineModel, code: PeriodicCode, phase: int = 0) -> RationalPoint:
    """Rational fixed point of the period-long composition starting at ``phase``.

    The y-coordinate is the cut height of the code's stable line in square
    w_phase.  It is read off the orbit walk, which derives every phase's
    height from one fixed point and raises when the height is undetermined
    (no vertical expansion along the cycle) or has no fixed point.  The
    x-coordinate is the fixed point D / (1 - C) of the phase's composed
    horizontal map x -> Cx + D, or the midpoint 1/2 when the horizontal
    direction is everywhere rigid (C = 1).  The composed map is held as
    x -> (x + N) / M in integers, so C = 1/M and the fixed point is N / (M - 1).
    """
    steps, den, nums = _orbit_walk(model, code)
    t = phase % code.period
    v = model.source.v
    N, M = 0, 1
    for x in steps[t:] + steps[:t]:
        N, M = N + (model.l[x] - 1) * M, v[model.k[x] - 1] * M
    x = Fraction(N, M - 1) if M != 1 else Fraction(1, 2)
    return RationalPoint(code.symbol(t), x, Fraction(nums[t], den))


class OracleRefinement(_Record):
    """The refined type, its label map and each square's cut lines from the
    bottom up.  The cut lines are kept as columns: line x has the height
    ``_nums[x] / _dens[x]``, unreduced, the phase ``_phases[x]`` and the
    code ``_codes[x]``, and ``_rows[i - 1]`` lists square i's lines from
    the bottom up.  ``cut_heights`` makes each square's (height, phase,
    code) triples, with ``Fraction`` heights, on first read."""

    _fields = ("refined", "label_map", "_rows", "_nums", "_dens", "_phases", "_codes")

    def __init__(
        self,
        refined: GeometricType,
        label_map: tuple[tuple[int, int], ...],
        _rows: tuple[list[int], ...],
        _nums: list[int],
        _dens: list[int],
        _phases: list[int],
        _codes: list[PeriodicCode],
    ) -> None:
        self._set_fields(refined, label_map, _rows, _nums, _dens, _phases, _codes)

    @cached_property
    def cut_heights(self) -> tuple[tuple[tuple[Fraction, int, PeriodicCode], ...], ...]:
        nums, dens, phases, codes = self._nums, self._dens, self._phases, self._codes
        return tuple(
            tuple((Fraction(nums[x], dens[x]), phases[x], codes[x]) for x in row)
            for row in self._rows
        )


def _height_keys(nums: Iterable[int], dens: Iterable[int], K: int) -> Iterator[int]:
    """Exact integer keys floor(y * 2^K) of the heights y = num / den, den > 0,
    read pairwise off the two columns.

    One scale serves every height of a call: if every denominator that
    occurs is below 2^B, K = 2B + 1 is enough.  Two distinct rationals a/q_1
    and b/q_2 differ by at least 1/(q_1 q_2) > 2^-2B (Farey neighbours are
    the closest), more than two steps of 2^-K, so the keys keep their order
    strictly, whatever the rationals' range, and equal keys mean equal
    rationals.  The image (a p + b q) / q of a mark p / q under a strip map
    keeps the mark's denominator, so it is keyed on the same scale.
    """
    return map(floordiv, map(lshift, nums, repeat(K)), dens)


def _rank_cuts(hosts: list[int], keys: list[int], n: int) -> list[list[int]]:
    """The cut lines of each square 1..n from the bottom up, as indices into
    the columns: line x lies in square ``hosts[x]`` and has the key
    ``keys[x]``, and each square's lines are sorted by key."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for x, i in enumerate(hosts):
        rows[i - 1].append(x)
    for row in rows:
        if row:
            row.sort(key=keys.__getitem__)
    return rows


def oracle_s_refine(T: GeometricType, W) -> OracleRefinement:
    """Recompute the stable-boundary refinement from the affine geometry.

    Cut heights come from one fixed point and one checked walk per orbit
    (the walk behind :func:`periodic_point`), as numerators over the orbit's
    denominator |1 - A|.  Every height the call touches then becomes one
    integer key floor(y * 2^K) (:func:`_height_keys`) on one scale,
    K = 2B + 1 with B the largest bit length among the cut denominators and
    every h_i: the cut heights, the strip edges j / h_i and each mark's
    image (a p + b q) / q under a strip map all have denominators below 2^B.
    Each square sorts its cut heights by key (:func:`_rank_cuts`); a square
    with no cut heights skips the sort.  Its marks, 0, its cut heights and
    1, form its cut grid ``{key: position}``, and two cut lines with one key
    leave the grid a cell short, which raises ``TieError``.  The strips of each square are
    walked upward, and each strip's bottom edge, the cut heights inside it
    (a key below the strip's top edge key) and its top edge are pushed once
    through its strip map and looked up on the target square's grid by the
    image's key.  The map is monotone, so the images must strictly increase
    (a > 0) or decrease (a < 0).  The strip's refined strips are the sweep
    between the images of its edges, in preimage order, and a band's length
    sums the steps between images until the next cut closes it.

    The refined rectangles are the bands, numbered square by square from the
    bottom up, and band r of square k gets v_k vertical strips.  A refined
    strip onto position l of band r is written as its vertical slot, (the
    refined v before band r) + l - 1, and the refined type is checked by
    :func:`require_valid`, whose permutation check on the slots also
    covers their range.
    """
    family = cutting_family(T, W)
    model = realize(T)

    # every cut line as columns: host square, height num / den, phase, code
    hosts: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    phases: list[int] = []
    codes: list[PeriodicCode] = []
    for code in family:
        _, den, heights = _orbit_walk(model, code)
        period = len(heights)
        hosts += code.word
        nums += heights
        dens += [den] * period
        phases += range(period)
        codes += [code] * period
    K = 2 * max(max(T.h), max(dens, default=0)).bit_length() + 1
    keys = list(_height_keys(nums, dens, K))
    rows = _rank_cuts(hosts, keys, T.n)
    bands = [len(row) + 1 for row in rows]
    label_map = tuple([(i, s) for i, size in enumerate(bands, start=1) for s in range(1, size + 1)])

    # the keys of each square's marks, 0, its cut heights and 1, and its cut
    # grid {key: position}, in which two cut lines with one key would share
    # a cell
    top = 1 << K  # the key of height 1
    mark_keys = [[0, *map(keys.__getitem__, row), top] for row in rows]
    grid: list[dict[int, int]] = [dict(zip(row, count())) for row in mark_keys]
    short = list(map(lt, map(len, grid), map(len, mark_keys)))
    if any(short):
        raise TieError(f"exact tie between distinct cut lines in square {short.index(True) + 1}")

    # the refined v before the first band of each square
    v_before = tuple(accumulate(map(mul, T.v, bands), initial=0))

    h_new: list[int] = []
    slots: list[int] = []
    eps: list[int] = []
    # zip draws from ``range`` first and stops there, so each square takes
    # exactly its h_i strips off this one iterator over the columns
    strips = zip(model.a, model.b, model.k, model.l)
    for i, (ks, row) in enumerate(zip(mark_keys, rows), start=1):
        h_i = T.h[i - 1]
        c, J_bar = 1, 0  # mark c is the lowest mark above the strips walked so far
        for j, (a, b, k, l) in zip(range(1, h_i + 1), strips):
            cells = grid[k - 1]
            edge = (j << K) // h_i  # the key of the strip's top edge j / h_i
            # the image of y = p / q is (a p + b q) / q, keyed on the same scale
            prev = lo = cells.get(((a * (j - 1) + b * h_i) << K) // h_i)
            if lo is None:
                raise GeoTypeError("image of a band edge missed the cut grid")
            while True:
                # the next mark inside strip j, else the strip's top edge
                inside = ks[c] < edge
                if inside:  # mark c is the cut line row[c - 1]
                    x = row[c - 1]
                    p, q = nums[x], dens[x]
                else:
                    p, q = j, h_i
                pos = cells.get(((a * p + b * q) << K) // q)
                if pos is None:
                    raise GeoTypeError("image of a band edge missed the cut grid")
                step = pos - prev if a > 0 else prev - pos
                if step < 1:
                    raise GeoTypeError(f"strip ({i},{j}) does not map its marks monotonically")
                J_bar += step
                if not inside:
                    break
                h_new.append(J_bar)
                c, J_bar, prev = c + 1, 0, pos
            # band p of square k, between marks p - 1 and p, has the refined
            # v_before[k - 1] + (p - 1) v_k before it; the strip sweeps bands
            # lo + 1..pos upward, or lo..pos + 1 downward
            v_k = T.v[k - 1]
            base = v_before[k - 1] + l - 1
            if a > 0:
                band_slots = range(base + lo * v_k, base + pos * v_k, v_k)
            else:
                band_slots = range(base + (lo - 1) * v_k, base + (pos - 1) * v_k, -v_k)
            slots.extend(band_slots)
            eps.extend(repeat(1 if a > 0 else -1, len(band_slots)))
        h_new.append(J_bar)

    v_new = tuple(chain.from_iterable(map(repeat, T.v, bands)))
    refined = GeometricType._from_slots(tuple(h_new), v_new, tuple(slots), tuple(eps))
    require_valid(refined)
    return OracleRefinement(
        refined,
        label_map,
        tuple(rows),
        nums,
        dens,
        phases,
        codes,
    )


# -- diagram emission -----------------------------------------------------------


def model_svg(T: GeometricType, W=()) -> str:
    """Deterministic SVG of the unit squares, strips and cut lines of W."""
    model = realize(T)
    side = 120.0
    gap = 30.0
    height = side + 60.0
    width = T.n * (side + gap) + gap
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">'
    ]
    cut_rows: list[list[tuple[Fraction, str]]] = [[] for _ in range(T.n)]
    for code in W:
        if not isinstance(code, PeriodicCode):
            code = PeriodicCode(tuple(code))
        orbit_id = ".".join(str(sym) for sym in code.orbit().canonical.word)
        _, den, nums = _orbit_walk(model, code)
        for t, (i, num) in enumerate(zip(code.word, nums)):
            cut_rows[i - 1].append((Fraction(num, den), f"({t},{orbit_id})"))
    for i in range(1, T.n + 1):
        x0 = gap + (i - 1) * (side + gap)
        y0 = 30.0
        lines.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{side:.2f}" height="{side:.2f}" '
            'fill="none" stroke="black"/>'
        )
        lines.append(
            f'<text x="{x0 + side / 2:.2f}" y="{y0 + side + 18:.2f}" '
            f'text-anchor="middle" font-size="12">R{i}</text>'
        )
        for j in range(1, T.h[i - 1]):
            y = y0 + side - float(Fraction(j, T.h[i - 1])) * side
            lines.append(
                f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x0 + side:.2f}" y2="{y:.2f}" '
                'stroke="gray" stroke-dasharray="4,3"/>'
            )
        for l in range(1, T.v[i - 1]):
            x = x0 + float(Fraction(l, T.v[i - 1])) * side
            lines.append(
                f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y0 + side:.2f}" '
                'stroke="gray" stroke-dasharray="2,3"/>'
            )
        for y_frac, label in sorted(cut_rows[i - 1]):
            y = y0 + side - float(y_frac) * side
            lines.append(
                f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x0 + side:.2f}" y2="{y:.2f}" '
                'stroke="red"/>'
            )
            lines.append(
                f'<text x="{x0 + side + 2:.2f}" y="{y + 4:.2f}" font-size="10" '
                f'fill="red">{label}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
