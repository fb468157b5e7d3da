"""Textbook definitions kept as test references; nothing under
``src/geotype`` imports this module.

The library sorts cut lines by one kneading key per phase
(``geotype.refine._pack_keys``), a byte string compared bytewise.  The
formulas here are the paper's pairwise definitions of that order: the strip
index ``j_index``, the mismatch time ``mismatch_M`` of two shifted codes,
the orientation product ``interchange_delta`` before it, and the comparison
``interval_less`` built on single keys decoded (``decode_key``) into signed
strip sequences and compared as integer tuples.  Tests check the key sort
against them.  The order table's views by cut id and by row, ``pair``,
``count`` and ``refs``, and a result's band lookup ``r_of`` serve these
tests; the library reads none of them.

A refinement's rectangle map pi (refined r to the source rectangle of
``label_map[r - 1]``) intertwines the transition matrices of source and
refined type.  ``intertwines`` checks that identity sparsely, from the
public fields of both types, with no oracle and no engine internals.
A refinement also transports the boundary exactly: each side's boundary
orbits of the refined type are the recodes of the source's boundary on
that side, plus those of the cutting family on the cut side, and nothing
else.  ``transported_boundary`` checks that identity through the public
``recode``, with each side's orbits walked by ``walked_boundary_orbits``:
a gamma walk written out here, read off h, v, the slots and eps, which
builds no gamma table and reads no orbits a type keeps, so it checks the
orbits that ``corner_refine_along`` keeps on its first pass by
transport.  ``recode_by_cycles`` is the definition a recode is tested
against: every refined periodic code over the code, found by walking the
refined type's transitions through the rectangles over its word.
``recode_chain`` writes recodes as golden text: codes fed through a chain
of stages, one line per code per stage.

The library's symbolic side reads a sparse transition graph.  The dense
matrix arithmetic here is its reference: the dense view ``dense_rows``,
``matrix_power``, the trace ``trace_power`` behind
``count_periodic_points``, and the Wielandt scan ``wielandt_is_mixing``
behind ``is_mixing``.

Two cutting passes compose: refining along W1 and then along the recodes
of W2 gives, once its rectangles are renumbered by the two label maps
(``renumber``), the one-pass refinement along W1 + W2.  ``composes`` checks
that identity, which sees the order of strips inside each target block.

The library keys each cycle of a gamma table with no symbol check.
``boundary_orbits_by_from_word`` is the reference it is tested against:
every boundary label's cycle, as its summary writes it, keyed through the
public ``CodeOrbit.from_word``.

The library's binary refinement is the stable refinement's block layout
with a cut at every strip edge.  ``bin_refine_by_strips`` is the paper's
definition it is tested against, strip by strip.

The library stores each strip's target as an integer vertical slot, inverts
a type as a permutation of those slots and keys its branch table by one
integer per step.  ``inverse_by_labels`` and ``branches_by_labels`` are the
label-by-label definitions they are tested against: rho reversed as a
relation, and the table ``{(i, xi(i, j)): (j, eps(i, j))}``.  The step
column that a family check hands to the order table is tested against
``step_column_by_labels``, read off that table step by step.

The affine model is nothing but its integer columns (a, b, k, l), read off
T's slots.  ``strip_columns_by_labels`` is the per-strip definition they
are tested against: one (a, b, k, l) per horizontal label, read off
``T.rho``.  Tests that follow a step of an orbit find its strip through
``branches_by_labels`` and ``T.lex_index``.

The library checks a cutting family in one pass over all its codes and
walks it code by code only to name the first fault.
``cutting_family_by_code`` is the per-code loop it is tested against: each
code in W order is converted, range-checked, checked step by step against
the branch table, and compared with the orbits before it and with the
boundary orbits.

The library enumerates shift orbits by the FKM prenecklace recursion, whose
words are canonical by construction.  ``lyndon_scan_orbits`` is the search it
is tested against: every admissible path from its least symbol, each kept
when it closes a cycle and is less than all of its proper rotations.

The library classifies an eventually periodic code by the orbit of its
periodic end on each side.  ``tail_scan_classify`` is the definition it is
tested against: it compares every positive tail of the code, and of its
time reversal, with the code of every boundary label, each in the unique
minimal form ``canonical_eventually_periodic`` (``canonical_tail`` for a
boundary label's summary).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import lcm

from geotype import (
    BinRefinement,
    BoundaryCodeError,
    CodeOrbit,
    DuplicateOrbitError,
    EventuallyPeriodicCode,
    GeoTypeError,
    GeometricType,
    HLabel,
    IncidenceMatrix,
    IntervalRef,
    OrderTable,
    PeriodicCode,
    RefinementResult,
    SULabel,
    VLabel,
    boundary_orbits,
    incidence_matrix,
    s_boundary_positive_code,
    s_refine,
    u_boundary_negative_code,
    u_refine,
)
from geotype.boundary import BoundaryOrbitSummary
from geotype.core import _branch_keys
from geotype.refine import InvariantError, _pack_keys
from geotype.shift import AdmissibilityError, binary_branches, primitive_root, require_symbols


class ShiftEqualError(GeoTypeError):
    """Two interval references denote the same shifted code."""


def bin_refine_by_strips(T: GeometricType) -> BinRefinement:
    """The binary refinement, strip by strip: r(i, j) is the rectangle made
    of strip (i, j), numbered by the lexicographic position of (i, j).  It
    gets v_i vertical and h_k horizontal strips, where (k, l) = rho(i, j);
    its strips, read bottom-up, map to position l of r(k, 1), ..., r(k, h_k),
    in reverse when eps(i, j) = -1."""
    labels = [HLabel(i, j) for i in range(1, T.n + 1) for j in range(1, T.h[i - 1] + 1)]
    r = {label: x for x, label in enumerate(labels, start=1)}
    h, v, rho, eps = [], [], [], []
    for label in labels:
        k, l, e = T.phi(label)
        targets = [r[(k, j)] for j in range(1, T.h[k - 1] + 1)]
        v.append(T.v[label.i - 1])
        h.append(len(targets))
        rho.extend(VLabel(target, l) for target in (targets if e == 1 else targets[::-1]))
        eps.extend([e] * len(targets))
    return BinRefinement(GeometricType(tuple(h), tuple(v), tuple(rho), tuple(eps)), tuple(labels))


def inverse_by_labels(T: GeometricType) -> GeometricType:
    """The inverse type, label by label: h and v swap, and rho(i, j) = (k, l)
    with sign e becomes rho'(k, l) = (i, j) with the same sign, each written
    at the lexicographic position of (k, l) among the vertical labels."""
    offsets = tuple(accumulate(T.v, initial=0))
    rho: list[VLabel | None] = [None] * len(T.rho)
    eps = [0] * len(T.eps)
    for label, (k, l), e in zip(T.h_labels(), T.rho, T.eps):
        slot = offsets[k - 1] + l - 1
        rho[slot], eps[slot] = VLabel(*label), e
    return GeometricType(T.v, T.h, tuple(rho), tuple(eps))


def branches_by_labels(T: GeometricType) -> dict[tuple[int, int], tuple[int, int]]:
    """The branch table ``{(i, xi(i, j)): (j, eps(i, j))}``, label by label;
    one entry per strip when the incidence matrix is binary."""
    return {(i, k): (j, e) for (i, j), (k, _), e in zip(T.h_labels(), T.rho, T.eps)}


def step_column_by_labels(T: GeometricType, family) -> list[int]:
    """The step column of a cutting family of T, label by label: for every
    phase t of every code in order, the strip j of rectangle w_t that maps
    into w_{t+1}, signed by its orientation e, as e * j."""
    branches = branches_by_labels(T)
    column = []
    for code in family:
        for t in range(code.period):
            j, e = branches[(code.symbol(t), code.symbol(t + 1))]
            column.append(e * j)
    return column


def strip_columns_by_labels(T: GeometricType) -> tuple[tuple[int, int, int, int], ...]:
    """The strip maps of the affine model, label by label, as (a, b, k, l):
    strip (i, j) with rho(i, j) = (k, l) and sign e maps by y -> ay + b,
    y -> h_i y - (j - 1) when e = +1 or y -> j - h_i y when e = -1, onto
    vertical strip l of square k."""
    columns = []
    for (i, j), (k, l), e in zip(T.h_labels(), T.rho, T.eps):
        a, b = (T.h[i - 1], 1 - j) if e == 1 else (-T.h[i - 1], j)
        columns.append((a, b, k, l))
    return tuple(columns)


def j_index(T: GeometricType, code: PeriodicCode, t: int) -> int:
    """The unique strip of rectangle w_t that maps into rectangle w_{t+1}."""
    require_symbols(T.n, code.word)
    i = code.symbol(t)
    nxt = code.symbol(t + 1)
    for j in range(1, T.h[i - 1] + 1):
        if T.phi((i, j))[0] == nxt:
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
        delta_a *= T.phi((a.code.symbol(a.t + m), j_index(T, a.code, a.t + m)))[2]
        delta_b *= T.phi((b.code.symbol(b.t + m), j_index(T, b.code, b.t + m)))[2]
    if delta_a != delta_b:
        raise InvariantError("orientation product must not depend on the code")
    return delta_a


def decode_key(T: GeometricType, key: bytes) -> tuple[int, ...]:
    """The signed strip sequence of a kneading key of T: each digit is a
    fixed-width big-endian integer d, wide enough for 0..2H with H the
    largest h_i, and stands for the symbol d - H."""
    H = max(T.h)
    width = 1
    while 2 * H >= 256**width:
        width += 1
    if len(key) % width:
        raise ValueError(f"key of {len(key)} bytes is not a whole number of {width}-byte digits")
    return tuple(int.from_bytes(key[m : m + width], "big") - H for m in range(0, len(key), width))


def _kneading_key(T: GeometricType, ref: IntervalRef, span: int) -> tuple[int, ...]:
    """The signed strip sequence of one cut line: its phase's entry of
    :func:`_pack_keys` over the code's :func:`step_column_by_labels`, decoded."""
    steps = step_column_by_labels(T, [ref.code])
    return decode_key(T, _pack_keys(T, steps, (0, len(steps)), span)[ref.t])


def interval_less(T: GeometricType, a: IntervalRef, b: IntervalRef) -> bool:
    """Strict vertical order of two cut lines with a common host rectangle.

    ``a`` lies below ``b`` exactly when its :func:`_kneading_key` of the
    Fine-Wilf length 2(p_a + p_b) is lexicographically smaller as a tuple of
    signed integers (see ``build_order``).
    """
    if a.host != b.host:
        raise ValueError("interval references must share a host rectangle")
    binary_branches(T)
    span = 2 * (a.code.period + b.code.period)
    key_a = _kneading_key(T, a, span)
    key_b = _kneading_key(T, b, span)
    if key_a == key_b:
        raise ShiftEqualError(f"intervals ({a.t},{a.code}) and ({b.t},{b.code}) are shift-equal")
    return key_a < key_b


def pair(table: OrderTable, c: int) -> tuple[int, int]:
    """The pair (f, t) of cut id c: the stable line of phase t of ``family[f]``."""
    starts = table._starts
    if not 0 <= c < starts[-1]:
        raise ValueError(f"cut {c} is not a cut of this table (0..{starts[-1] - 1})")
    f = bisect_right(starts, c) - 1
    return f, c - starts[f]


def count(table: OrderTable, i: int) -> int:
    """The number of cut lines of rectangle i."""
    n = len(table.cuts)
    if not 1 <= i <= n:
        raise ValueError(f"rectangle {i} is not a rectangle of this table (1..{n})")
    return len(table.cuts[i - 1])


def refs(table: OrderTable, i: int) -> tuple[IntervalRef, ...]:
    """The cut lines of rectangle i as interval references, bottom-up."""
    count(table, i)  # the range check
    return table.entries[i - 1]


def r_of(result: RefinementResult, i: int, s: int) -> int:
    """The refined rectangle of band s of source rectangle i: the bands of
    the rectangles before i, plus s."""
    if result.order is None:
        raise GeoTypeError("pipeline results have no single label map")
    bands = [len(row) + 1 for row in result.order.cuts]
    if not (1 <= i <= len(bands) and 1 <= s <= bands[i - 1]):
        raise ValueError(f"label ({i},{s}) is not a band of this result")
    return sum(bands[: i - 1]) + s


def positions(table: OrderTable) -> tuple[tuple[int, ...], ...]:
    """``positions(table)[f][t]`` is the table position of phase t of ``family[f]``."""
    rows = [[0] * code.period for code in table.family]
    for row in table.cuts:
        for p, c in enumerate(row, start=1):
            f, t = pair(table, c)
            rows[f][t] = p
    return tuple(tuple(row) for row in rows)


def position(table: OrderTable, ref: IntervalRef) -> int:
    """The table position of a cut line: its rank from the bottom, 1-based."""
    return positions(table)[table.family.index(ref.code)][ref.t]


def cutting_family_by_code(
    T: GeometricType, W, *, unstable: bool = False, drop_boundary: bool = False
) -> tuple[PeriodicCode, ...]:
    """The codes of W checked as a cutting family of T, code by code in W
    order, raising at the first faulty code: a raw word that is no
    ``PeriodicCode``, a symbol out of range, a step with no key in the
    branch table, an orbit listed before, or a boundary orbit of the side
    (skipped when ``drop_boundary`` is set)."""
    branches = binary_branches(T)
    boundary = boundary_orbits(T, unstable=unstable)
    family: list[PeriodicCode] = []
    seen: set[CodeOrbit] = set()
    for code in W:
        if not isinstance(code, PeriodicCode):
            code = PeriodicCode(tuple(code))
        word = code.word
        require_symbols(T.n, word)
        if not all(map(branches.__contains__, _branch_keys(T.n, word, word[1:] + word[:1]))):
            raise AdmissibilityError(f"code {code} is not admissible for this type")
        orbit = code.orbit()
        if orbit in seen:
            raise DuplicateOrbitError(f"duplicate orbit {orbit.canonical} in cutting family")
        if orbit in boundary:
            if drop_boundary:
                continue
            kind = "u-boundary" if unstable else "s-boundary"
            raise BoundaryCodeError(f"{kind} code {code} in cutting family cuts nothing")
        seen.add(orbit)
        family.append(code)
    return tuple(family)


# -- refinements as factor maps ----------------------------------------------------


def edge_weights(T: GeometricType, signed: bool = False) -> dict[tuple[int, int], int]:
    """The nonzero entries ``{(i, k): a_ik}`` of the transition matrix: the
    number of strips of rectangle i that map into rectangle k, or, when
    ``signed``, the sum of their orientation signs."""
    weights: dict[tuple[int, int], int] = {}
    for (i, _), (k, _), e in zip(T.h_labels(), T.rho, T.eps):
        weights[(i, k)] = weights.get((i, k), 0) + (e if signed else 1)
    return {step: a for step, a in weights.items() if a}


def intertwines(result, signed: bool = False) -> bool:
    """Whether the rectangle map of a single-stage refinement intertwines
    the transition matrices A of its source and A' of its refined type.

    Let pi send refined rectangle r to the source rectangle i of
    ``label_map[r - 1] = (i, s)``, and let Pi be its 0/1 matrix.  A stable
    refinement cuts each rectangle into horizontal bands, so every refined
    r' has, over each source rectangle i, as many predecessors as A has
    steps from i into pi(r'): Pi^T A' = A Pi^T.  An unstable refinement
    cuts vertical bands, so every r has, over each source k, as many
    successors as A has steps from pi(r) into k: A' Pi = Pi A, which is
    the stable identity for the transposed matrices.  With ``signed`` the
    matrices sum the orientation signs of the strips.  Both sides are
    built sparsely, from the public fields of both types.
    """
    if result.kind not in ("s", "u"):
        raise ValueError("only single-stage results have one rectangle map")
    pi = [i for i, _ in result.label_map]
    if len(pi) != result.refined.n:
        return False

    def matrix(T: GeometricType) -> dict[tuple[int, int], int]:
        weights = edge_weights(T, signed)
        return weights if result.kind == "s" else {(k, i): a for (i, k), a in weights.items()}

    into: dict[int, list[tuple[int, int]]] = {}  # k -> [(i, a_ik)] of the source
    for (i, k), a in matrix(result.source).items():
        into.setdefault(k, []).append((i, a))
    lhs: dict[tuple[int, int], int] = {}  # (Pi^T A')[i][r']
    for (r, r2), a in matrix(result.refined).items():
        lhs[(pi[r - 1], r2)] = lhs.get((pi[r - 1], r2), 0) + a
    rhs = {(i, r2): a for r2, k in enumerate(pi, start=1) for i, a in into.get(k, ())}
    return {step: a for step, a in lhs.items() if a} == rhs


def transported_boundary(result, codes, unstable: bool) -> bool:
    """Whether a refinement transports one side's boundary exactly: the
    boundary orbits of ``result.refined`` on that side (unstable when
    ``unstable``) are the orbits of the recodes of the source's boundary
    orbits on that side and of ``codes``, and no others.  For a single pass
    along W, ``codes`` is W on the cut side and empty on the other side;
    boundary members of W, which ``drop_boundary`` drops, change nothing.
    A pipeline transports both sides alike, with ``codes`` the families it
    cut along."""
    source = walked_boundary_orbits(result.source, unstable)
    images = {
        shadow.orbit()
        for code in [*(orbit.canonical for orbit in source), *codes]
        for shadow in result.recode(code)
    }
    return walked_boundary_orbits(result.refined, unstable) == images


def walked_boundary_orbits(T: GeometricType, unstable: bool = False) -> frozenset[CodeOrbit]:
    """One side's boundary orbits, by a walk of gamma read off h, v, the
    slots and eps alone: it neither builds nor reads ``T._gamma`` or
    ``T._boundary_orbits``.  Gamma sends edge (i, s), the bottom (s = -1)
    or top (s = +1) edge of rectangle i, to edge (k, s * e), where k is the
    rectangle of the target slot of i's bottom or top strip and e that
    strip's sign.  On the unstable side the walk runs on the inverse, whose
    slots are the inverse permutation, each strip keeping its sign, and
    every cycle reads backward.  A cycle through both edges of a rectangle
    spells a power of its orbit's phase, so each is keyed through the
    public ``CodeOrbit.from_word``."""
    h, v, slots, eps = T.h, T.v, T._slots, T.eps
    if unstable:
        inverse = [0] * len(slots)
        for x, slot in enumerate(slots):
            inverse[slot] = x
        h, v, slots, eps = v, h, inverse, [eps[x] for x in inverse]
    rectangle = [k for k, count in enumerate(v, start=1) for _ in range(count)]
    offsets = list(accumulate(h, initial=0))
    gamma = {}
    for i in range(1, len(h) + 1):
        for s, x in ((-1, offsets[i - 1]), (1, offsets[i] - 1)):
            gamma[(i, s)] = (rectangle[slots[x]], s * eps[x])
    orbits, done = set(), set()
    for label in gamma:
        path: dict[tuple[int, int], int] = {}  # label -> its place on this walk
        while label not in path and label not in done:
            path[label] = len(path)
            label = gamma[label]
        if label in path:  # the walk closed a cycle no earlier walk reached
            word = tuple(i for i, _ in list(path)[path[label]:])
            orbits.add(CodeOrbit.from_word(word[::-1] if unstable else word))
        done.update(path)
    return frozenset(orbits)


def recode_by_cycles(result, code: PeriodicCode) -> frozenset[PeriodicCode]:
    """The refined codes over a periodic code of a single-stage result, by
    brute force: every cycle of 2p refined rectangles, p the code's period,
    whose rectangles, mapped to their source rectangles through
    ``label_map``, spell the code's word twice, with each step a transition
    of the refined type, kept as the primitive root of its word.  Two
    periods cover a cut line behind an odd number of orientation-reversing
    strips, whose two flanks swap after one period."""
    word = code.word * 2
    over = [i for i, _ in result.label_map]
    succ = incidence_matrix(result.refined).succ
    paths = [[r] for r, i in enumerate(over, start=1) if i == word[0]]
    for symbol in word[1:]:
        paths = [path + [r] for path in paths for r in succ[path[-1] - 1] if over[r - 1] == symbol]
    return frozenset(
        PeriodicCode(primitive_root(path)) for path in paths if path[0] in succ[path[-1] - 1]
    )


def recode_chain(name: str, stages, codes) -> list[str]:
    """Golden lines of codes recoded through ``stages`` in turn, each stage
    fed every code recoded out of the one before, sorted by word: one line
    ``<name> <stage>: <code> -> <recodes>`` per code and stage, its recodes
    sorted by word and joined by `` ; ``."""
    lines = []
    for number, stage in enumerate(stages, start=1):
        out = set()
        for code in codes:
            recoded = sorted(stage.recode(code), key=lambda c: c.word)
            out.update(recoded)
            lines.append(f"{name} {number}: {code} -> {' ; '.join(map(str, recoded))}")
        codes = sorted(out, key=lambda c: c.word)
    return lines


def renumber(T: GeometricType, order: list[int]) -> GeometricType:
    """T with its rectangle ``order[r - 1]`` renamed r, built through the
    public constructor: strips keep their numbers within a rectangle."""
    new = {old: r for r, old in enumerate(order, start=1)}
    mapping = {
        (new[i], j): (new[k], l, e) for (i, j), (k, l), e in zip(T.h_labels(), T.rho, T.eps)
    }
    return GeometricType.build(
        [T.h[old - 1] for old in order], [T.v[old - 1] for old in order], mapping
    )


def composes(T: GeometricType, W1, W2, unstable: bool = False) -> bool:
    """Whether two cutting passes compose into one.

    Refine T along W1, then refine that result along the recodes of W2
    (each code of W2 lies on no cut line of W1, so it recodes to one code).
    Every rectangle of the second result is band s2 of band s1 of a source
    rectangle i, read off the two label maps.  Renumbered in lexicographic
    order of (i, s1, s2), the second result must be the one-pass refinement
    along W1 + W2, with the same source rectangle in each place.  This sees
    the order of the strips within every block, which the intertwining
    identities do not.  Both passes are ``u_refine`` when ``unstable``.
    """
    refine = u_refine if unstable else s_refine
    whole = refine(T, [*W1, *W2])
    first = refine(T, W1)
    recoded = []
    for code in W2:
        (shadow,) = first.recode(code)
        recoded.append(shadow)
    second = refine(first.refined, recoded)
    labels = {r: first.label_map[r1 - 1] + (s2,) for r, (r1, s2) in enumerate(second.label_map, 1)}
    order = sorted(labels, key=labels.__getitem__)
    sources = [labels[r][0] for r in order]
    return renumber(second.refined, order) == whole.refined and sources == [
        i for i, _ in whole.label_map
    ]


def boundary_orbits_by_from_word(T: GeometricType, unstable: bool = False) -> frozenset[CodeOrbit]:
    """One side's boundary orbits, each keyed through the public
    ``CodeOrbit.from_word``: the cycle of every boundary label's code
    (:func:`s_boundary_positive_code`, or :func:`u_boundary_negative_code`
    read backward) as that label's walk writes it down, a power of its
    orbit's phase when the cycle passes both edges of a rectangle."""
    summary = u_boundary_negative_code if unstable else s_boundary_positive_code
    labels = [SULabel(i, e) for i in range(1, T.n + 1) for e in (-1, 1)]
    cycles = [summary(T, label).cycle for label in labels]
    return frozenset(CodeOrbit.from_word(c[::-1] if unstable else c) for c in cycles)


# -- classification by tail scan -------------------------------------------------


def canonical_eventually_periodic(
    pre: tuple[int, ...], cyc: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique minimal (preperiod, primitive cycle) representation of pre + cyc^inf."""
    root = list(primitive_root(cyc))
    head = list(pre)
    while head and head[-1] == root[-1]:
        head.pop()
        root = [root[-1]] + root[:-1]
    return tuple(head), tuple(root)


def canonical_tail(summary: BoundaryOrbitSummary) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical form of a boundary label's eventually periodic code."""
    return canonical_eventually_periodic(summary.preperiod, summary.cycle)


def _tails(middle: tuple[int, ...], cycle: tuple[int, ...]):
    """Distinct positive tails (as canonical eventually periodic pairs)."""
    for k in range(len(middle)):
        yield canonical_eventually_periodic(middle[k:], cycle)
    for k in range(len(cycle)):
        yield canonical_eventually_periodic((), cycle[k:] + cycle[:k])


def _has_boundary_tail(middle: tuple[int, ...], cycle: tuple[int, ...], codes) -> bool:
    """True iff a positive tail of middle + cycle^inf is one of the boundary codes."""
    targets = {canonical_tail(summary) for summary in codes}
    return any(tail in targets for tail in _tails(middle, cycle))


def tail_scan_classify(T: GeometricType, code: EventuallyPeriodicCode) -> str:
    """S-leaf / U-leaf / corner-leaf / interior by scanning every tail.

    A code is an S-leaf when some forward tail equals the stable code of a
    boundary label, and a U-leaf when some backward tail, read in reversed
    time, equals the unstable code of a boundary label.  Eventually periodic
    tails are compared through their unique canonical form.  Admissibility
    is checked pair by pair, with the library's errors.
    """
    binary_branches(T)
    branches = branches_by_labels(T)
    for a, b in code.transition_pairs():
        if not (1 <= a <= T.n and 1 <= b <= T.n):
            raise AdmissibilityError(f"symbol out of range 1..{T.n}")
        if (a, b) not in branches:
            raise AdmissibilityError("code uses transitions forbidden by the incidence matrix")
    labels = [SULabel(i, eps) for i in range(1, T.n + 1) for eps in (-1, 1)]
    is_s = _has_boundary_tail(
        code.middle, code.right_cycle, (s_boundary_positive_code(T, x) for x in labels)
    )
    is_u = _has_boundary_tail(
        code.middle[::-1], code.left_cycle[::-1], (u_boundary_negative_code(T, x) for x in labels)
    )
    if is_s and is_u:
        return "corner-leaf"
    if is_s:
        return "S-leaf"
    if is_u:
        return "U-leaf"
    return "interior"


# -- dense matrix arithmetic -----------------------------------------------------


def dense_rows(A: IncidenceMatrix) -> tuple[tuple[int, ...], ...]:
    """The n x n rows of the matrix, zeros included."""
    rows = []
    for row in A.succ:
        dense = [0] * A.n
        for k, a in row.items():
            dense[k - 1] = a
        rows.append(tuple(dense))
    return tuple(rows)


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][m] * b[m][k] for m in range(n)) for k in range(n)]
        for i in range(n)
    ]


def matrix_power(A: IncidenceMatrix, p: int) -> list[list[int]]:
    n = A.n
    result = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    base = [list(row) for row in dense_rows(A)]
    while p:
        if p & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        p >>= 1
    return result


def trace_power(A: IncidenceMatrix, p: int) -> int:
    """tr(A^p) off the dense power."""
    power = matrix_power(A, p)
    return sum(power[i][i] for i in range(A.n))


def wielandt_is_mixing(A: IncidenceMatrix) -> bool:
    """Primitivity: some power is entrywise positive.

    Checking powers up to the Wielandt bound n^2 - 2n + 2 is sufficient, so
    the scan is finite and exact.
    """
    n = A.n
    bound = n * n - 2 * n + 2
    boolean = [[1 if x else 0 for x in row] for row in dense_rows(A)]
    power = boolean
    for _ in range(bound):
        if all(all(x for x in row) for row in power):
            return True
        power = [[1 if x else 0 for x in row] for row in _mat_mul(power, boolean)]
    return False


# -- orbit enumeration -------------------------------------------------------------


def lyndon_scan_orbits(A: IncidenceMatrix, max_period: int) -> tuple[tuple[int, ...], ...]:
    """The admissible Lyndon words of length <= P, sorted by (length, word),
    by a depth-first search that tests every prefix against its rotations."""
    found: list[tuple[int, ...]] = []
    stack = [(start,) for start in range(1, A.n + 1)] if max_period >= 1 else []
    while stack:
        word = stack.pop()
        is_lyndon = all(word < word[k:] + word[:k] for k in range(1, len(word)))
        if is_lyndon and word[0] in A.succ[word[-1] - 1]:
            found.append(word)
        if len(word) < max_period:
            stack.extend(word + (nxt,) for nxt in A.succ[word[-1] - 1] if nxt >= word[0])
    return tuple(sorted(found, key=lambda w: (len(w), w)))
