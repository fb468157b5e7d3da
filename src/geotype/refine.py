"""
Refinements of geometric types.

Three constructions live here.  The binary refinement promotes every
horizontal strip to a rectangle of its own, which forces a 0/1 incidence
matrix.  The stable-boundary refinement cuts rectangles along the horizontal
lines carried by a family of periodic codes; its engine sorts the cut lines
of each rectangle by a kneading key (a finite signed strip sequence), then
applies one image formula per strip to assemble the refined bijection.
The unstable-boundary refinement is the same construction run on the inverse
type, and the corner / bounded-period refinements are pipelines of the two.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .core import (
    GeoTypeError,
    GeometricType,
    HLabel,
    invert,
    require_valid,
    serialize,
)
from .boundary import (
    BoundaryCodeError as BoundaryCodeError,  # re-exported
    DuplicateOrbitError as DuplicateOrbitError,  # re-exported
    boundary_orbits,
    cutting_family,
    has_corner_property,
)
from .shift import (
    AdmissibilityError,
    CodeOrbit,
    PeriodicCode,
    binary_branches,
    binary_incidence,
    enumerate_orbits,
    primitive_root,
)


class ShiftEqualError(GeoTypeError):
    """Two interval references denote the same shifted code."""


class PeriodBoundError(GeoTypeError):
    """The requested period bound is below the boundary-code maximum."""


class InvariantError(GeoTypeError):
    """A construction broke an invariant it guarantees for valid binary input."""


# -- binary refinement ----------------------------------------------------------


@dataclass(frozen=True)
class BinRefinement:
    refined: GeometricType
    label_map: tuple[HLabel, ...]  # position r-1 holds the source label (i, j)


def bin_refine(T: GeometricType) -> BinRefinement:
    """Promote horizontal strips to rectangles; the result is always binary.

    Rectangle r(i, j) inherits v_i vertical strips and h_k horizontal ones,
    where (k, l) = rho(i, j).  Orientation decides whether the new strips
    enumerate the strips of rectangle k bottom-up or top-down.
    """
    require_valid(T)
    labels = tuple(T.h_labels())
    r_of = {label: pos + 1 for pos, label in enumerate(labels)}
    h_new: list[int] = []
    v_new: list[int] = []
    mapping: dict[tuple[int, int], tuple[int, int, int]] = {}
    for label in labels:
        k, l, e = T.phi(label)
        r = r_of[label]
        v_new.append(T.v[label.i - 1])
        h_new.append(T.h[k - 1])
        for j0 in range(1, T.h[k - 1] + 1):
            if e == 1:
                target = r_of[HLabel(k, j0)]
            else:
                target = r_of[HLabel(k, T.h[k - 1] - (j0 - 1))]
            mapping[(r, j0)] = (target, l, e)
    refined = GeometricType.build(tuple(h_new), tuple(v_new), mapping)
    require_valid(refined)
    return BinRefinement(refined, labels)


# -- the interval order engine ---------------------------------------------------


@dataclass(frozen=True)
class IntervalRef:
    """The stable line carried by iterate t of a pointed periodic code."""

    t: int
    code: PeriodicCode

    def __post_init__(self) -> None:
        if not (0 <= self.t < self.code.period):
            raise ValueError("iterate index must lie in 0..period-1")

    @property
    def host(self) -> int:
        return self.code.symbol(self.t)

    def successor(self) -> "IntervalRef":
        return IntervalRef((self.t + 1) % self.code.period, self.code)


def j_index(T: GeometricType, code: PeriodicCode, t: int) -> int:
    """The unique strip of rectangle w_t that maps into rectangle w_{t+1}."""
    i = code.symbol(t)
    nxt = code.symbol(t + 1)
    for j in range(1, T.h[i - 1] + 1):
        if T.xi((i, j)) == nxt:
            return j
    raise AdmissibilityError(
        f"no strip of rectangle {i} maps into rectangle {nxt} (code {code})"
    )


def mismatch_M(T: GeometricType, a: IntervalRef, b: IntervalRef) -> int:
    """First forward time at which the two shifted codes disagree."""
    if a.host != b.host:
        raise ValueError("interval references must share a host rectangle")
    if a.code.rotate(a.t) == b.code.rotate(b.t):
        raise ShiftEqualError(f"intervals ({a.t},{a.code}) and ({b.t},{b.code}) are shift-equal")
    window = lcm(a.code.period, b.code.period)
    for m in range(1, window + 1):
        if a.code.symbol(a.t + m) != b.code.symbol(b.t + m):
            return m
    raise ShiftEqualError("mismatch search window exceeded; inputs are shift-equal")


def interchange_delta(T: GeometricType, a: IntervalRef, b: IntervalRef) -> int:
    """Sign of the orientation product before the codes diverge; +1 when M = 1."""
    M = mismatch_M(T, a, b)
    if M == 1:
        return 1
    delta_a = 1
    delta_b = 1
    for m in range(M - 1):
        delta_a *= T.eps_of((a.code.symbol(a.t + m), j_index(T, a.code, a.t + m)))
        delta_b *= T.eps_of((b.code.symbol(b.t + m), j_index(T, b.code, b.t + m)))
    if delta_a != delta_b:
        raise InvariantError("orientation product must not depend on the code")
    return delta_a


def _kneading_key(
    branches: dict[tuple[int, int], tuple[int, int]], ref: IntervalRef, span: int
) -> tuple[int, ...]:
    """The first ``span`` symbols of the signed strip sequence of a cut line.

    Symbol m is delta_m * j_m: j_m is the strip that step t + m of the code
    runs through and delta_m the orientation product of the m steps before
    it.  The sequence has period 2p, so one signed period is computed from
    the branch table of :func:`shift.binary_branches` and repeated.
    """
    code, t = ref.code, ref.t
    steps = 2 * (code.word[t:] + code.word[:t])
    period: list[int] = []
    delta = 1
    for step in zip(steps, steps[1:] + steps[:1]):
        branch = branches.get(step)
        if branch is None:
            raise AdmissibilityError(f"code {code} is not admissible for this type")
        j, e = branch
        period.append(delta * j)
        delta *= e
    return tuple(period * -(-span // len(period)))[:span]


def interval_less(T: GeometricType, a: IntervalRef, b: IntervalRef) -> bool:
    """Strict vertical order of two cut lines with a common host rectangle.

    The order is the twisted lexicographic (kneading) order of Milnor and
    Thurston, *On iterated maps of the interval* (1988): ``a`` lies below
    ``b`` exactly when its :func:`_kneading_key` is smaller.  Up to the
    mismatch time M of :func:`mismatch_M` both codes run through the same
    strips, so their keys first differ at index M - 1, where the strips
    differ and ``interchange_delta`` gives the common sign.  The keys have
    periods 2p_a and 2p_b, so by Fine and Wilf two distinct ones differ
    within 2p_a + 2p_b - gcd(2p_a, 2p_b) symbols, and keys of length
    2(p_a + p_b) decide the order exactly.
    """
    if a.host != b.host:
        raise ValueError("interval references must share a host rectangle")
    branches = binary_branches(T)
    span = 2 * (a.code.period + b.code.period)
    key_a = _kneading_key(branches, a, span)
    key_b = _kneading_key(branches, b, span)
    if key_a == key_b:
        raise ShiftEqualError(f"intervals ({a.t},{a.code}) and ({b.t},{b.code}) are shift-equal")
    return key_a < key_b


@dataclass(frozen=True)
class OrderTable:
    """Per-rectangle vertical order of the cut lines, sentinels implicit.

    Position 0 is the bottom edge (i, -1) and position count+1 the top edge
    (i, +1); the interval at table position p (1-based) sits p-th from the
    bottom.
    """

    n: int
    family: tuple[PeriodicCode, ...]
    entries: tuple[tuple[IntervalRef, ...], ...]

    def count(self, i: int) -> int:
        return len(self.entries[i - 1])

    def refs(self, i: int) -> tuple[IntervalRef, ...]:
        return self.entries[i - 1]

    def position(self, ref: IntervalRef) -> int:
        return self._positions[ref]

    @cached_property
    def _positions(self) -> dict[IntervalRef, int]:
        return {ref: p for refs in self.entries for p, ref in enumerate(refs, start=1)}


def build_order(T: GeometricType, W, *, drop_boundary: bool = False) -> OrderTable:
    """Validate a cutting family and sort its cut lines rectangle by rectangle.

    Each cut line is sorted by its :func:`_kneading_key` of length 4P, where
    P is the longest period in the family; that is the Fine-Wilf length
    2(p_a + p_b) for every pair, so the sort is exact (see
    :func:`interval_less`).  The family check and the branch table cost
    O(alpha + sum of periods), the keys O(cuts * P) and the sort
    O(cuts * log cuts) comparisons.
    """
    family = cutting_family(T, W, drop_boundary=drop_boundary)
    branches = binary_branches(T)
    buckets: list[list[IntervalRef]] = [[] for _ in range(T.n)]
    for code in family:
        for t in range(code.period):
            ref = IntervalRef(t, code)
            buckets[ref.host - 1].append(ref)
    span = 4 * max((code.period for code in family), default=0)
    entries = tuple(
        tuple(sorted(bucket, key=lambda ref: _kneading_key(branches, ref, span)))
        for bucket in buckets
    )
    return OrderTable(T.n, family, entries)


# -- refinement results -----------------------------------------------------------


@dataclass(frozen=True)
class RefinementResult:
    """A refined type plus the bookkeeping that produced it.

    Single-stage results carry the label map r <-> (i, s) and the order
    table; pipeline results chain stages and carry only the final type.  For
    'u' results the bookkeeping refers to the stable-side run on the inverse
    type (rectangle labels r agree).
    """

    refined: GeometricType
    source: GeometricType
    kind: str  # 's' | 'u' | 'pipeline'
    label_map: tuple[tuple[int, int], ...] | None = None
    order: OrderTable | None = None
    stages: tuple["RefinementResult", ...] = ()

    def r_of(self, i: int, s: int) -> int:
        if self.label_map is None:
            raise GeoTypeError("pipeline results have no single label map")
        return self._r_index[(i, s)]

    @cached_property
    def _r_index(self) -> dict[tuple[int, int], int]:
        return {label: r for r, label in enumerate(self.label_map, start=1)}

    # -- recoding ------------------------------------------------------------

    def recode(self, code: PeriodicCode) -> frozenset[PeriodicCode]:
        """Codes of the refined type shadowing a periodic code of the source.

        A cut code yields its two flanking rectangle codes (just below and
        just above the cut line); any other admissible periodic code yields
        the single code of the rectangles its orbit passes through.
        """
        if self.kind == "pipeline":
            current = {code}
            for stage in self.stages:
                current = {new for c in current for new in stage.recode(c)}
            return frozenset(current)
        if self.kind == "u":
            inner = self.stages[0]
            reversed_out = inner.recode(code.reversed_pointed())
            return frozenset(c.reversed_pointed() for c in reversed_out)
        return self._recode_s(code)

    def _recode_s(self, code: PeriodicCode) -> frozenset[PeriodicCode]:
        if self.kind != "s" or self.order is None:
            raise InvariantError("only stable results with an order table recode directly")
        branches = binary_branches(self.source)
        by_orbit = {w.orbit(): w for w in self.order.family}
        orbit = code.orbit()
        if orbit in by_orbit:
            # The two flanking rectangle codes swap sides at every
            # orientation-reversing step, so their period doubles when the
            # orientation product over one period is -1.  The product over
            # the first t steps is the sign of symbol t of the kneading key.
            rep = by_orbit[orbit]
            P = rep.period
            signed = _kneading_key(branches, IntervalRef(0, rep), 2 * P)
            signs = [1 if x > 0 else -1 for x in signed]
            length = P if signs[P] == 1 else 2 * P
            below: list[int] = []
            above: list[int] = []
            for t in range(length):
                ref = IntervalRef(t % P, rep)
                pos = self.order.position(ref)
                low = self.r_of(ref.host, pos)
                high = self.r_of(ref.host, pos + 1)
                if signs[t] == 1:
                    below.append(low)
                    above.append(high)
                else:
                    below.append(high)
                    above.append(low)
            return frozenset(
                {
                    PeriodicCode(primitive_root(below)),
                    PeriodicCode(primitive_root(above)),
                }
            )
        # Count the cuts below each phase of the code by bisecting its host's
        # sorted cuts; the key length covers the code's own period too.
        span = 2 * (max((w.period for w in self.order.family), default=0) + code.period)

        def key(ref: IntervalRef) -> tuple[int, ...]:
            return _kneading_key(branches, ref, span)

        word: list[int] = []
        for t in range(code.period):
            ref = IntervalRef(t, code)
            i = ref.host
            s = 1 + bisect_left(self.order.refs(i), key(ref), key=key)
            word.append(self.r_of(i, s))
        return frozenset({PeriodicCode(primitive_root(word))})


def _tilde_labels(order: OrderTable) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    pairs: list[tuple[int, int]] = []
    starts: list[int] = []
    total = 0
    for i in range(1, order.n + 1):
        starts.append(total)
        for s in range(1, order.count(i) + 2):
            pairs.append((i, s))
        total += order.count(i) + 1
    return tuple(pairs), starts


def s_refine(T: GeometricType, W, *, drop_boundary: bool = False) -> RefinementResult:
    """Cut each rectangle along the stable lines of all iterates of W.

    Every strip j of the source that meets a refined rectangle contributes
    one refined strip per band of the target rectangle k that its piece
    sweeps.  Positions in k run from 0 (bottom edge) through the cut lines
    to count + 1 (top edge), and band s lies between positions s - 1 and s.
    The piece's lower end lands at position a: the successor of the lower
    cut when that cut lies in strip j, else the edge of k that the
    orientation e sends the strip's bottom to.  The upper end lands at b in
    the same way.  The images are the bands a+1..b when e = +1 and a, a-1,
    ..., b+1 when e = -1.
    """
    order = build_order(T, W, drop_boundary=drop_boundary)
    branches = binary_branches(T)
    pairs, starts = _tilde_labels(order)
    h_new: list[int] = []
    v_new: list[int] = []
    mapping: dict[tuple[int, int], tuple[int, int, int]] = {}

    for r, (i, s) in enumerate(pairs, start=1):
        count_i = order.count(i)
        # the cut lines bounding band s; None stands for the bottom or top edge
        lower = None if s == 1 else order.refs(i)[s - 2]
        upper = None if s == count_i + 1 else order.refs(i)[s - 1]
        j_lo = branches[(i, lower.code.symbol(lower.t + 1))][0] if lower else 1
        j_hi = branches[(i, upper.code.symbol(upper.t + 1))][0] if upper else T.h[i - 1]
        if j_lo > j_hi:
            raise InvariantError(f"cut lines of rectangle {i} are out of order")
        v_new.append(T.v[i - 1])

        J_bar = 0
        for j in range(j_lo, j_hi + 1):
            k, l, e = T.phi((i, j))
            bottom, top = (0, order.count(k) + 1) if e == 1 else (order.count(k) + 1, 0)
            a = order.position(lower.successor()) if lower and j == j_lo else bottom
            b = order.position(upper.successor()) if upper and j == j_hi else top
            if e * (b - a) < 1:
                raise InvariantError(f"strip ({i},{j}) has no image in rectangle {k}")
            for band in range(a + 1, b + 1) if e == 1 else range(a, b, -1):
                J_bar += 1
                mapping[(r, J_bar)] = (starts[k - 1] + band, l, e)
        h_new.append(J_bar)

    refined = GeometricType.build(tuple(h_new), tuple(v_new), mapping)
    binary_branches(refined)  # postcondition: the refined type is valid and binary
    return RefinementResult(
        refined=refined,
        source=T,
        kind="s",
        label_map=pairs,
        order=order,
    )


def u_refine(T: GeometricType, W, *, drop_boundary: bool = False) -> RefinementResult:
    """Cut along unstable lines: the stable refinement of the inverse type.

    Code words are reversed before feeding the inverse side, since forward
    time for the inverse is backward time for the original.
    """
    family = cutting_family(T, W, unstable=True, drop_boundary=drop_boundary)
    inner = s_refine(invert(T), [w.reversed_pointed() for w in family])
    return RefinementResult(
        refined=invert(inner.refined),
        source=T,
        kind="u",
        label_map=inner.label_map,
        order=inner.order,
        stages=(inner,),
    )


# -- pipelines ---------------------------------------------------------------------


def _orbit_reps(orbits: frozenset[CodeOrbit]) -> list[PeriodicCode]:
    return [o.canonical for o in sorted(orbits, key=CodeOrbit.sort_key)]


def _pipeline(T: GeometricType, stages: tuple[RefinementResult, ...]) -> RefinementResult:
    refined = stages[-1].refined if stages else T
    return RefinementResult(refined=refined, source=T, kind="pipeline", stages=stages)


def corner_refine(T: GeometricType) -> RefinementResult:
    """Restore the corner property by an s-pass then a u-pass.

    First cut along the boundary periodic codes that are not yet stable
    boundary (they are the unstable-only ones), then cut the intermediate
    type along its own stable boundary codes that are not yet unstable
    boundary.
    """
    stage1 = s_refine(T, _orbit_reps(boundary_orbits(T, unstable=True) - boundary_orbits(T)))
    T1 = stage1.refined
    stage2 = u_refine(T1, _orbit_reps(boundary_orbits(T1) - boundary_orbits(T1, unstable=True)))
    return _pipeline(T, (stage1, stage2))


def corner_refine_along(T: GeometricType, W) -> RefinementResult:
    """Cut along W, then corner-refine; boundary members of W cut nothing."""
    if not has_corner_property(T):
        raise GeoTypeError("corner refinement along a family needs the corner property")
    stage1 = s_refine(T, W, drop_boundary=True)
    inner = corner_refine(stage1.refined)
    return _pipeline(T, (stage1,) + inner.stages)


def wp_refine(T: GeometricType, P: int) -> RefinementResult:
    """Put every periodic orbit of period <= P on refined rectangle corners."""
    A = binary_incidence(T)
    boundary = boundary_orbits(T)
    if boundary != boundary_orbits(T, unstable=True):
        raise GeoTypeError("bounded-period refinement needs the corner property")
    p_bound = max(orbit.period for orbit in boundary)
    if P < p_bound:
        raise PeriodBoundError(f"P below P_B(T)={p_bound}")
    orbits = enumerate_orbits(A, P)
    return corner_refine_along(T, [o.canonical for o in orbits])


# -- serialization ------------------------------------------------------------------


def _orbit_id(code: PeriodicCode) -> str:
    return ".".join(str(s) for s in code.orbit().canonical.word)


def _entry_text(ref: IntervalRef) -> str:
    return f"({ref.t},{_orbit_id(ref.code)})"


def serialize_result(result: RefinementResult) -> str:
    """Canonical text block: refined type, then LABEL / ORDER / CUT lines.

    Pipelines serialize the refined type only; the per-stage tables are stage
    objects, not attributes of the composite.
    """
    out = serialize(result.refined)
    if result.kind == "pipeline" or result.order is None:
        return out
    lines: list[str] = []
    for r, (i, s) in enumerate(result.label_map, start=1):
        lines.append(f"LABEL {r}=({i},{s})")
    for i in range(1, result.order.n + 1):
        entries = " ".join(
            [f"({i},-)"] + [_entry_text(ref) for ref in result.order.refs(i)] + [f"({i},+)"]
        )
        lines.append(f"ORDER {i} : {entries}")
    for i in range(1, result.order.n + 1):
        for pos, ref in enumerate(result.order.refs(i), start=1):
            lines.append(f"CUT {_entry_text(ref)} host={i} pos={pos}")
    return out + "\n".join(lines) + ("\n" if lines else "")
