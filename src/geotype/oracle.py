"""
Exact-rational piecewise-affine realization of a geometric type.

Every rectangle becomes the unit square; horizontal strip j of square i is
[0,1] x [(j-1)/h_i, j/h_i] and is sent onto vertical strip l of square k by
an affine map that contracts horizontally by 1/v_k, expands vertically by
h_i, and flips vertically exactly when eps = -1.  All arithmetic is exact
and on integers: the model holds its strip maps as flat integer columns
(a, b, k, l), one entry per strip, and cut heights and band edges are
reduced integer pairs (num, den).  ``fractions.Fraction`` values are made
only where a caller reads them: the point of :func:`periodic_point`,
``OracleRefinement.cut_heights``, the ``StripMap`` views' ``c``, ``d`` and
``apply_x``, and the SVG's cut lines.

The module recomputes stable-boundary refinements geometrically (cut heights
as fixed points, sorted by an exact integer key; each strip's edges and cut
heights pushed once through its monotone strip map onto the integer cut
grids) and writes the refined type's vertical slots from its own band
numbering.  It is kept free of the formula engine in ``refine`` so the two
can check each other.
The two share only their input checks: the type's in ``core`` and ``shift``,
and the cutting family's in :func:`boundary.cutting_family`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import gcd
from operator import mul

from .core import GeoTypeError, GeometricType, HLabel, VLabel, _lex_columns, _targets, require_valid
from .shift import AdmissibilityError, NonBinaryError, PeriodicCode, require_symbols
from .boundary import cutting_family


class TieError(GeoTypeError):
    """Two distinct cut lines landed on the same height: a deduplication bug."""


@dataclass(frozen=True)
class RationalPoint:
    square: int
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class StripMap:
    """Affine map of one horizontal strip onto one vertical strip: a view of
    one strip of an :class:`AffineModel`'s columns.

    Vertical part y' = ay + b with integers a = eps * h_i and b = -(j - 1)
    (eps = +1) or j (eps = -1); horizontal part x' = (x + l - 1) / v with
    the integer v = v_k and l = ``target.l``.  ``c`` = 1/v and ``d`` =
    (l - 1)/v are its coefficients as ``Fraction``s.
    """

    source: HLabel
    target: VLabel
    a: int
    b: int
    v: int

    @property
    def eps(self) -> int:
        return 1 if self.a > 0 else -1

    @property
    def c(self) -> Fraction:
        return Fraction(1, self.v)

    @property
    def d(self) -> Fraction:
        return Fraction(self.target.l - 1, self.v)

    def apply_x(self, x: Fraction) -> Fraction:
        return (x + self.target.l - 1) / self.v


@dataclass(frozen=True)
class AffineModel:
    """The strip maps of ``source`` as integer columns in the lexicographic
    order of its strips: strip x, the x-th label (i, j) counted from 0, maps
    by y -> a[x] y + b[x] and x -> (x + l[x] - 1) / v_k onto the vertical
    strip (k[x], l[x]).  ``maps`` shows them as ``StripMap``s, built on
    first read; the oracle itself reads only the columns."""

    source: GeometricType
    a: tuple[int, ...]
    b: tuple[int, ...]
    k: tuple[int, ...]
    l: tuple[int, ...]

    @cached_property
    def maps(self) -> tuple[StripMap, ...]:
        v = self.source.v
        return tuple(
            StripMap(label, VLabel(k, l), a, b, v[k - 1])
            for label, a, b, k, l in zip(self.source.h_labels(), self.a, self.b, self.k, self.l)
        )

    @cached_property
    def _branches(self) -> dict[tuple[int, int], int]:
        """``{(i, k): x}``: the strip x of square i into square k, or minus
        the number of such strips when there are more than one."""
        steps = list(zip(_lex_columns(self.source.h)[0], self.k))
        table = dict(zip(steps, range(len(steps))))
        if len(table) < len(steps):
            for step, count in Counter(steps).items():
                if count > 1:
                    table[step] = -count
        return table

    def _branch_index(self, i: int, target_square: int) -> int:
        """The strip index of the unique strip of square i into the target square."""
        x = self._branches.get((i, target_square))
        if x is None:
            raise AdmissibilityError(f"square {i} has 0 strips into square {target_square}")
        if x < 0:
            raise NonBinaryError(f"square {i} has {-x} strips into square {target_square}")
        return x

    def strip_map(self, label: tuple[int, int]) -> StripMap:
        return self.maps[self.source.lex_index(label) - 1]

    def branch(self, i: int, target_square: int) -> int:
        """The unique strip of square i mapped into the target square."""
        return self._branch_index(i, target_square) - self.source._offsets[i - 1] + 1

    def extract_type(self) -> GeometricType:
        """Read (rho, eps) back off the affine data, not off the source type."""
        rho: list[tuple[int, int]] = []
        for m in self.maps:
            k = m.target.k
            # left endpoint of the x-image of [0,1] identifies the vertical slot
            left = m.apply_x(Fraction(0))
            l = left * self.source.v[k - 1] + 1
            if l.denominator != 1:
                raise GeoTypeError("image is not aligned with a vertical strip")
            rho.append((k, int(l)))
        eps = tuple(m.eps for m in self.maps)
        return GeometricType(self.source.h, self.source.v, tuple(rho), eps)


def realize(T: GeometricType) -> AffineModel:
    """The affine model of a valid type: a = eps * h_i, and b = 1 - j for
    eps = +1 or j for eps = -1, so that y -> ay + b sends strip (i, j) onto
    [0, 1]; k and l are read off T's slots."""
    require_valid(T)
    a = tuple(map(mul, T.eps, chain.from_iterable(map(repeat, T.h, T.h))))
    b = tuple([1 - j if e == 1 else j for j, e in zip(_lex_columns(T.h)[1], T.eps)])
    k, l = zip(*_targets(T.v, T._slots))
    return AffineModel(T, a, b, k, l)


def _orbit_walk(
    model: AffineModel, code: PeriodicCode
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The strip indices and cut heights of ``code``'s orbit, phase by phase.

    Every phase's height comes from one fixed point: y_0 = B / (1 - A) of
    the period's composed vertical map y -> Ay + B, pushed once around the
    cycle by y_{t+1} = a_t y_t + b_t.  The walk checks that y_t lies in
    strip (i_t, j_t) and that it returns to y_0.  The slope A is the same
    at every phase, so a height is undetermined (A = 1, B = 0) or missing
    (A = 1, B != 0) at every phase alike.  All heights share the
    denominator |1 - A|, so the walk runs on integer numerators, and each
    height is returned as a reduced pair (num, den).
    """
    word = code.word
    T = model.source
    require_symbols(T.n, word)
    steps = tuple(map(model._branch_index, word, word[1:] + word[:1]))
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
    start = num
    heights: list[tuple[int, int]] = []
    for i, x in zip(word, steps):
        j = x - T._offsets[i - 1] + 1
        # (j - 1) / h_i <= num / den <= j / h_i, with den > 0
        h_i = T.h[i - 1]
        if not (j - 1) * den <= num * h_i <= j * den:
            raise GeoTypeError(f"cut height {Fraction(num, den)} escapes strip ({i},{j})")
        g = gcd(num, den)
        heights.append((num // g, den // g))
        num = a_col[x] * num + b_col[x] * den
    if num != start:
        raise GeoTypeError("cut height is not periodic under the strip maps")
    return steps, tuple(heights)


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
    steps, heights = _orbit_walk(model, code)
    t = phase % code.period
    v = model.source.v
    N, M = 0, 1
    for x in steps[t:] + steps[:t]:
        N, M = N + (model.l[x] - 1) * M, v[model.k[x] - 1] * M
    x = Fraction(N, M - 1) if M != 1 else Fraction(1, 2)
    return RationalPoint(code.symbol(t), x, Fraction(*heights[t]))


@dataclass(frozen=True)
class OracleRefinement:
    """The refined type, its label map and each square's cut lines from the
    bottom up, kept as (height, phase, code) with the height a reduced pair
    (num, den); ``cut_heights`` makes the heights ``Fraction``s on first read."""

    refined: GeometricType
    label_map: tuple[tuple[int, int], ...]
    _cuts: tuple[tuple[tuple[tuple[int, int], int, PeriodicCode], ...], ...]

    @cached_property
    def cut_heights(self) -> tuple[tuple[tuple[Fraction, int, PeriodicCode], ...], ...]:
        return tuple(tuple((Fraction(*y), t, code) for y, t, code in row) for row in self._cuts)


def _height_keys(heights: list[tuple[int, int]]) -> list[int]:
    """Exact integer sort keys floor(y * 2^K) of heights y = num / den in [0, 1].

    K = 2B + 1, where B is the largest denominator bit length.  Two distinct
    heights a/q_1 and b/q_2 differ by at least 1/(q_1 q_2) > 2^-2B, more
    than two steps of 2^-K, so the keys keep their order strictly, and equal
    keys mean equal heights.
    """
    K = 2 * max(den.bit_length() for _, den in heights) + 1
    return [(num << K) // den for num, den in heights]


def oracle_s_refine(T: GeometricType, W) -> OracleRefinement:
    """Recompute the stable-boundary refinement from the affine geometry.

    Cut heights come from one fixed point and one checked walk per orbit
    (the walk behind :func:`periodic_point`) and are sorted by an exact
    integer key (:func:`_height_keys`); a square with no cut heights skips
    the sort.  Each square's marks, 0, its cut heights and 1, form a cut
    grid of reduced integer pairs (num, den).  The strips of each square
    are walked upward, and each strip's bottom edge, the cut heights inside
    it and its top edge are pushed once through its strip map, on integers,
    and looked up on the target square's grid.  The map is monotone, so the
    images must strictly increase (a > 0) or decrease (a < 0).  The strip's
    refined strips are the sweep between the images of its edges, in
    preimage order, and a band's length sums the steps between images until
    the next cut closes it.

    The refined rectangles are the bands, numbered square by square from the
    bottom up, and band r of square k gets v_k vertical strips.  A refined
    strip onto position l of band r is written as its vertical slot, (the
    refined v before band r) + l - 1, and the refined type is checked by
    :func:`require_valid`, whose permutation check on the slots also
    covers their range.
    """
    family = cutting_family(T, W)
    model = realize(T)

    cuts: list[list[tuple[tuple[int, int], int, PeriodicCode]]] = [[] for _ in range(T.n)]
    for code in family:
        _, heights = _orbit_walk(model, code)
        for t, y in enumerate(heights):
            cuts[code.symbol(t) - 1].append((y, t, code))
    for i, bucket in enumerate(cuts, start=1):
        if not bucket:
            continue
        keys = _height_keys([y for y, _, _ in bucket])
        ranked = sorted(zip(keys, bucket), key=lambda pair: pair[0])
        if any(a[0] == b[0] for a, b in zip(ranked, ranked[1:])):
            raise TieError(f"exact tie between distinct cut lines in square {i}")
        bucket[:] = [item for _, item in ranked]

    marks: list[list[tuple[int, int]]] = [
        [(0, 1)] + [y for y, _, _ in bucket] + [(1, 1)] for bucket in cuts
    ]
    grid: list[dict[tuple[int, int], int]] = [
        {mark: pos for pos, mark in enumerate(row)} for row in marks
    ]

    pairs = [(i, s) for i, bucket in enumerate(cuts, start=1) for s in range(1, len(bucket) + 2)]
    # the refined v before the first band of each square
    v_before = tuple(accumulate((v_k * (len(bucket) + 1) for v_k, bucket in zip(T.v, cuts)), initial=0))

    h_new: list[int] = []
    slots: list[int] = []
    eps: list[int] = []
    # zip draws from ``range`` first and stops there, so each square takes
    # exactly its h_i strips off this one iterator over the columns
    strips = zip(model.a, model.b, model.k, model.l)
    for i, row in enumerate(marks, start=1):
        h_i = T.h[i - 1]
        c, J_bar = 1, 0  # row[c] is the lowest mark above the strips walked so far
        for j, (a, b, k, l) in zip(range(1, h_i + 1), strips):
            cells = grid[k - 1]
            # grid points are the reduced pairs of a * y + b for y = num / den
            num = a * (j - 1) + b * h_i
            g = gcd(num, h_i)
            prev = lo = cells.get((num // g, h_i // g))
            while True:
                # the next mark inside strip j, else the strip's top edge
                p, q = row[c]
                inside = p * h_i < j * q
                if not inside:
                    p, q = j, h_i
                num = a * p + b * q
                g = gcd(num, q)
                pos = cells.get((num // g, q // g))
                if pos is None or prev is None:
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

    v_new = tuple(T.v[i - 1] for i, _ in pairs)
    refined = GeometricType._from_slots(tuple(h_new), v_new, tuple(slots), tuple(eps))
    require_valid(refined)
    return OracleRefinement(
        refined,
        tuple(pairs),
        tuple(tuple(bucket) for bucket in cuts),
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
        _, heights = _orbit_walk(model, code)
        for t, y in enumerate(heights):
            cut_rows[code.symbol(t) - 1].append((Fraction(*y), f"({t},{orbit_id})"))
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
