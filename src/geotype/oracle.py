"""
Exact-rational piecewise-affine realization of a geometric type.

Every rectangle becomes the unit square; horizontal strip j of square i is
[0,1] x [(j-1)/h_i, j/h_i] and is sent onto vertical strip l of square k by
an affine map that contracts horizontally by 1/v_k, expands vertically by
h_i, and flips vertically exactly when eps = -1.  All arithmetic is exact
and on integers: a strip map is held as integers, and cut heights and band
edges are reduced integer pairs (num, den).  ``fractions.Fraction`` values
are made only where a caller reads them: the point of
:func:`periodic_point`, ``OracleRefinement.cut_heights``, the views
``StripMap.c``, ``d`` and ``apply_x``, and the SVG's cut lines.

The module recomputes stable-boundary refinements geometrically (cut heights
as fixed points, sorted by an exact integer key; each strip's edges and cut
heights pushed once through its monotone strip map onto the integer cut
grids) and is kept free of the formula engine in ``refine`` so the two can
check each other.
The two share only their input checks: the type's in ``core`` and ``shift``,
and the cutting family's in :func:`boundary.cutting_family`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd

from .core import GeoTypeError, GeometricType, HLabel, VLabel, require_valid
from .shift import AdmissibilityError, PeriodicCode, require_symbols
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
    """Affine map of one horizontal strip onto one vertical strip.

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
    source: GeometricType
    maps: tuple[StripMap, ...]  # aligned with the lexicographic label order

    @cached_property
    def _branches(self) -> dict[tuple[int, int], list[StripMap]]:
        """``{(i, k): [map, ...]}``: the maps of the strips of square i into square k."""
        table: dict[tuple[int, int], list[StripMap]] = {}
        for m in self.maps:
            table.setdefault((m.source.i, m.target.k), []).append(m)
        return table

    def strip_map(self, label: tuple[int, int]) -> StripMap:
        return self.maps[self.source.lex_index(label) - 1]

    def _branch_map(self, i: int, target_square: int) -> StripMap:
        """The map of the unique strip of square i into the target square."""
        hits = self._branches.get((i, target_square), [])
        if len(hits) != 1:
            raise AdmissibilityError(
                f"square {i} has {len(hits)} strips into square {target_square}"
            )
        return hits[0]

    def branch(self, i: int, target_square: int) -> int:
        """The unique strip of square i mapped into the target square."""
        return self._branch_map(i, target_square).source.j

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
    require_valid(T)
    maps: list[StripMap] = []
    for label, target, e in zip(T.h_labels(), T.rho, T.eps):
        h_i = T.h[label.i - 1]
        a, b = (h_i, 1 - label.j) if e == 1 else (-h_i, label.j)
        maps.append(StripMap(label, target, a, b, T.v[target.k - 1]))
    return AffineModel(T, tuple(maps))


def _orbit_walk(
    model: AffineModel, code: PeriodicCode
) -> tuple[tuple[StripMap, ...], tuple[tuple[int, int], ...]]:
    """The strip maps and cut heights of ``code``'s orbit, phase by phase.

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
    require_symbols(model.source.n, word)
    steps = tuple(model._branch_map(i, k) for i, k in zip(word, word[1:] + word[:1]))
    A, B = 1, 0
    for m in steps:
        A, B = m.a * A, m.a * B + m.b
    if A == 1:
        if B == 0:
            raise GeoTypeError("vertical cut height undetermined: no expansion along cycle")
        raise GeoTypeError("vertical holonomy has no fixed point")
    den, num = (1 - A, B) if A < 1 else (A - 1, -B)
    start = num
    heights: list[tuple[int, int]] = []
    for m in steps:
        i, j = m.source.i, m.source.j
        # (j - 1) / h_i <= num / den <= j / h_i, with den > 0
        h_i = model.source.h[i - 1]
        if not (j - 1) * den <= num * h_i <= j * den:
            raise GeoTypeError(f"cut height {Fraction(num, den)} escapes strip ({i},{j})")
        g = gcd(num, den)
        heights.append((num // g, den // g))
        num = m.a * num + m.b * den
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
    N, M = 0, 1
    for m in steps[t:] + steps[:t]:
        N, M = N + (m.target.l - 1) * M, m.v * M
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


def _grid_point(m: StripMap, num: int, den: int) -> tuple[int, int]:
    """The reduced pair of a * y + b for y = num / den, den > 0."""
    num = m.a * num + m.b * den
    g = gcd(num, den)
    return num // g, den // g


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
    starts = tuple(accumulate((len(bucket) + 1 for bucket in cuts), initial=0))

    h_new: list[int] = []
    rho: list[VLabel] = []
    eps: list[int] = []
    for i, row in enumerate(marks, start=1):
        h_i = T.h[i - 1]
        first = T._offsets[i - 1]  # strip (i, j) maps by model.maps[first + j - 1]
        c, J_bar = 1, 0  # row[c] is the lowest mark above the strips walked so far
        for j in range(1, h_i + 1):
            m = model.maps[first + j - 1]
            k, l = m.target
            cells = grid[k - 1]
            prev = lo = cells.get(_grid_point(m, j - 1, h_i))
            while True:
                # the next mark inside strip j, else the strip's top edge
                p, q = row[c]
                inside = p * h_i < j * q
                pos = cells.get(_grid_point(m, p, q) if inside else _grid_point(m, j, h_i))
                if pos is None or prev is None:
                    raise GeoTypeError("image of a band edge missed the cut grid")
                step = pos - prev if m.a > 0 else prev - pos
                if step < 1:
                    raise GeoTypeError(f"strip ({i},{j}) does not map its marks monotonically")
                J_bar += step
                if not inside:
                    break
                h_new.append(J_bar)
                c, J_bar, prev = c + 1, 0, pos
            base = starts[k - 1]
            bands = range(base + lo + 1, base + pos + 1) if m.a > 0 else range(base + lo, base + pos, -1)
            rho.extend(map(tuple.__new__, repeat(VLabel), zip(bands, repeat(l))))
            eps.extend([m.eps] * len(bands))
        h_new.append(J_bar)

    v_new = tuple(T.v[i - 1] for i, _ in pairs)
    refined = GeometricType(tuple(h_new), v_new, tuple(rho), tuple(eps))
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
