"""
Exact-rational piecewise-affine realization of a geometric type.

Every rectangle becomes the unit square; horizontal strip j of square i is
[0,1] x [(j-1)/h_i, j/h_i] and is sent onto vertical strip l of square k by
an affine map that contracts horizontally by 1/v_k, expands vertically by
h_i, and flips vertically exactly when eps = -1.  All arithmetic is exact:
heights are ``fractions.Fraction`` values and band edges are reduced integer
pairs (num, den).

The module recomputes stable-boundary refinements geometrically (cut heights
as fixed points, sorted by value; each band's pieces pushed through the
monotone strip maps onto the integer cut grids) and is kept free of the
formula engine in ``refine`` so the two can check each other.
The two share only their input checks: the type's in ``core`` and ``shift``,
and the cutting family's in :func:`boundary.cutting_family`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .core import GeoTypeError, GeometricType, HLabel, VLabel, require_valid
from .shift import AdmissibilityError, PeriodicCode, min_rotation
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
    (eps = +1) or j (eps = -1); horizontal part x' = x / v_k + (l - 1) / v_k.
    """

    source: HLabel
    target: VLabel
    a: int
    b: int
    c: Fraction
    d: Fraction

    @property
    def eps(self) -> int:
        return 1 if self.a > 0 else -1

    def apply_x(self, x: Fraction) -> Fraction:
        return self.c * x + self.d


def _require_symbols(n: int, word: tuple[int, ...]) -> None:
    if any(not 1 <= s <= n for s in word):
        raise AdmissibilityError(f"symbol out of range 1..{n} in word {word}")


@dataclass(frozen=True)
class AffineModel:
    source: GeometricType
    maps: tuple[StripMap, ...]  # aligned with the lexicographic label order

    @cached_property
    def _branches(self) -> dict[tuple[int, int], list[int]]:
        """``{(i, k): [j, ...]}``: the strips of square i mapped into square k."""
        table: dict[tuple[int, int], list[int]] = {}
        for m in self.maps:
            table.setdefault((m.source.i, m.target.k), []).append(m.source.j)
        return table

    def strip_map(self, label: tuple[int, int]) -> StripMap:
        return self.maps[self.source.lex_index(label) - 1]

    def branch(self, i: int, target_square: int) -> int:
        """The unique strip of square i mapped into the target square."""
        hits = self._branches.get((i, target_square), [])
        if len(hits) != 1:
            raise AdmissibilityError(
                f"square {i} has {len(hits)} strips into square {target_square}"
            )
        return hits[0]

    def extract_type(self) -> GeometricType:
        """Read (rho, eps) back off the affine data, not off the source type."""
        mapping: dict[tuple[int, int], tuple[int, int, int]] = {}
        for label in self.source.h_labels():
            m = self.strip_map(label)
            k = m.target.k
            # left endpoint of the x-image of [0,1] identifies the vertical slot
            left = m.apply_x(Fraction(0))
            l = left * self.source.v[k - 1] + 1
            if l.denominator != 1:
                raise GeoTypeError("image is not aligned with a vertical strip")
            mapping[(label.i, label.j)] = (k, int(l), m.eps)
        return GeometricType.build(self.source.h, self.source.v, mapping)


def realize(T: GeometricType) -> AffineModel:
    require_valid(T)
    maps: list[StripMap] = []
    for label in T.h_labels():
        k, l, e = T.phi(label)
        h_i = T.h[label.i - 1]
        v_k = T.v[k - 1]
        a, b = (h_i, -(label.j - 1)) if e == 1 else (-h_i, label.j)
        maps.append(
            StripMap(label, VLabel(k, l), a, b, Fraction(1, v_k), Fraction(l - 1, v_k))
        )
    return AffineModel(T, tuple(maps))


def _orbit_walk(
    model: AffineModel, code: PeriodicCode
) -> tuple[tuple[StripMap, ...], tuple[Fraction, ...]]:
    """The strip maps and cut heights of ``code``'s orbit, phase by phase.

    Every phase's height comes from one fixed point: y_0 = B / (1 - A) of
    the period's composed vertical map y -> Ay + B, pushed once around the
    cycle by y_{t+1} = a_t y_t + b_t.  The walk checks that y_t lies in
    strip (i_t, j_t) and that it returns to y_0.  The slope A is the same
    at every phase, so a height is undetermined (A = 1, B = 0) or missing
    (A = 1, B != 0) at every phase alike.  All heights share the
    denominator |1 - A|, so the walk runs on integer numerators.
    """
    word = code.word
    _require_symbols(model.source.n, word)
    steps = tuple(
        model.strip_map((i, model.branch(i, k))) for i, k in zip(word, word[1:] + word[:1])
    )
    A, B = 1, 0
    for m in steps:
        A, B = m.a * A, m.a * B + m.b
    if A == 1:
        if B == 0:
            raise GeoTypeError("vertical cut height undetermined: no expansion along cycle")
        raise GeoTypeError("vertical holonomy has no fixed point")
    den, num = (1 - A, B) if A < 1 else (A - 1, -B)
    start = num
    heights: list[Fraction] = []
    for m in steps:
        i, j = m.source.i, m.source.j
        # (j - 1) / h_i <= num / den <= j / h_i, with den > 0
        h_i = model.source.h[i - 1]
        if not (j - 1) * den <= num * h_i <= j * den:
            raise GeoTypeError(f"cut height {Fraction(num, den)} escapes strip ({i},{j})")
        heights.append(Fraction(num, den))
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
    direction is everywhere rigid (C = 1).
    """
    steps, heights = _orbit_walk(model, code)
    t = phase % code.period
    C, D = Fraction(1), Fraction(0)
    for m in steps[t:] + steps[:t]:
        C, D = m.c * C, m.c * D + m.d
    x = D / (1 - C) if C != 1 else Fraction(1, 2)
    return RationalPoint(code.symbol(t), x, heights[t])


@dataclass(frozen=True)
class OracleRefinement:
    refined: GeometricType
    label_map: tuple[tuple[int, int], ...]
    cut_heights: tuple[tuple[tuple[Fraction, int, PeriodicCode], ...], ...]


def _grid_point(m: StripMap, num: int, den: int) -> tuple[int, int]:
    """The reduced pair of a * y + b for y = num / den, den > 0."""
    num = m.a * num + m.b * den
    g = gcd(num, den)
    return num // g, den // g


def oracle_s_refine(T: GeometricType, W) -> OracleRefinement:
    """Recompute the stable-boundary refinement from the affine geometry.

    Cut heights come from one fixed point and one checked walk per orbit
    (the walk behind :func:`periodic_point`) and are sorted exactly.  Each
    square's marks, 0, its cut heights and 1, form a cut grid of reduced
    integer pairs (num, den).  A band [lo, hi] of square i meets the strips
    j = floor(lo h_i) + 1 .. ceil(hi h_i); its piece in strip j is pushed
    through the strip map on integers and both ends are looked up on the
    target square's grid.  The map is monotone, so the bands the piece
    sweeps come in preimage order: upward when it preserves orientation,
    downward when it flips.
    """
    family = cutting_family(T, W)
    model = realize(T)

    cuts: list[list[tuple[Fraction, int, PeriodicCode]]] = [[] for _ in range(T.n)]
    for code in family:
        _, heights = _orbit_walk(model, code)
        for t, y in enumerate(heights):
            cuts[code.symbol(t) - 1].append((y, t, code))
    for i, bucket in enumerate(cuts, start=1):
        bucket.sort(key=lambda item: item[0])
        if any(a[0] == b[0] for a, b in zip(bucket, bucket[1:])):
            raise TieError(f"exact tie between distinct cut lines in square {i}")

    marks: list[list[tuple[int, int]]] = [
        [(0, 1)] + [(y.numerator, y.denominator) for y, _, _ in bucket] + [(1, 1)]
        for bucket in cuts
    ]
    grid: list[dict[tuple[int, int], int]] = [
        {mark: pos for pos, mark in enumerate(row)} for row in marks
    ]

    pairs: list[tuple[int, int]] = []
    starts: list[int] = []
    for i, bucket in enumerate(cuts, start=1):
        starts.append(len(pairs))
        pairs.extend((i, s) for s in range(1, len(bucket) + 2))

    h_new: list[int] = []
    v_new: list[int] = []
    mapping: dict[tuple[int, int], tuple[int, int, int]] = {}
    for r, (i, s) in enumerate(pairs, start=1):
        (p_lo, q_lo), (p_hi, q_hi) = marks[i - 1][s - 1], marks[i - 1][s]
        h_i = T.h[i - 1]
        v_new.append(T.v[i - 1])
        first, last = p_lo * h_i // q_lo + 1, -(-p_hi * h_i // q_hi)
        J_bar = 0
        for j in range(first, last + 1):
            # the band's piece in strip j; only the first and last strips clip it
            lo = (p_lo, q_lo) if j == first else (j - 1, h_i)
            hi = (p_hi, q_hi) if j == last else (j, h_i)
            m = model.strip_map((i, j))
            k = m.target.k
            end_lo = grid[k - 1].get(_grid_point(m, *lo))
            end_hi = grid[k - 1].get(_grid_point(m, *hi))
            if end_lo is None or end_hi is None:
                raise GeoTypeError("image of a band edge missed the cut grid")
            sweep = range(end_lo + 1, end_hi + 1) if m.a > 0 else range(end_lo, end_hi, -1)
            for band in sweep:
                J_bar += 1
                mapping[(r, J_bar)] = (starts[k - 1] + band, m.target.l, m.eps)
        h_new.append(J_bar)

    refined = GeometricType.build(tuple(h_new), tuple(v_new), mapping)
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
        orbit_id = ".".join(str(sym) for sym in min_rotation(code.word))
        _, heights = _orbit_walk(model, code)
        for t, y in enumerate(heights):
            cut_rows[code.symbol(t) - 1].append((y, f"({t},{orbit_id})"))
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
