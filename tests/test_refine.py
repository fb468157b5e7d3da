"""Binary refinement, the interval order engine, and the refinement pipelines."""

from __future__ import annotations

import gc
import random
import re
from itertools import accumulate, combinations, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import geotype
from geotype import (
    BoundaryCodeError,
    CodeOrbit,
    DuplicateOrbitError,
    EventuallyPeriodicCode,
    GeoTypeError,
    GeometricType,
    HLabel,
    IntervalRef,
    NonBinaryError,
    OrderTable,
    PeriodBoundError,
    PeriodicCode,
    RefinementResult,
    alpha,
    bin_refine,
    boundary_orbits,
    boundary_sets,
    build_order,
    classify_code,
    corner_refine,
    corner_refine_along,
    enumerate_orbits,
    has_corner_property,
    incidence_matrix,
    invert,
    is_binary,
    per_s_codes,
    per_u_codes,
    s_refine,
    serialize_result,
    u_refine,
    validate,
    wp_refine,
)
from geotype import boundary
from geotype.refine import (
    InvariantError,
    _assemble,
    _blocks,
    _cut_marks,
    _pack_keys,
    _sort_cuts,
)
from geotype.oracle import oracle_s_refine, periodic_point, realize
from geotype.shift import AdmissibilityError, parse_codes, primitive_root

from conftest import (
    binary_mixing_corpus,
    cutting_families,
    make_e0,
    make_e1,
    make_e1m,
    make_e2,
    make_e3,
    orientation_reversing_bin_types,
    random_corpus,
    valid_types,
)
from reference import (
    ShiftEqualError,
    _kneading_key,
    bin_refine_by_strips,
    branches_by_labels,
    composes,
    count,
    decode_key,
    dense_rows,
    interchange_delta,
    interval_less,
    intertwines,
    j_index,
    mismatch_M,
    pair,
    position,
    r_of,
    recode_by_cycles,
    recode_chain,
    refs,
    step_column_by_labels,
    transported_boundary,
    walked_boundary_orbits,
)

GOLDEN = Path(__file__).parent / "golden"

W12 = PeriodicCode((1, 2))


def test_bin_refine_worked_example(e1, e2):
    result = bin_refine(e1)
    assert result.refined == e2
    assert result.label_map == ((1, 1), (1, 2))
    assert dense_rows(incidence_matrix(result.refined)) == ((1, 1), (1, 1))


def test_bin_refine_fixes_singleton(e0):
    assert bin_refine(e0).refined == e0


def test_bin_refine_orientation_reversing_branch(e1m):
    refined = bin_refine(e1m).refined
    assert refined.phi((2, 1)) == (2, 2, -1)
    assert refined.phi((2, 2)) == (1, 2, -1)
    assert refined.phi((1, 1)) == (1, 1, 1)
    assert refined.phi((1, 2)) == (2, 1, 1)


def test_bin_refine_matches_the_strip_by_strip_definition():
    """The block layout gives the paper's refinement, label map included, on
    random types, E0-E3 and the n = 314 output of ``wp_refine(E2, 6)``."""
    types = random_corpus(seed=41, count=60) + [make_e0(), make_e1(), make_e1m(), make_e2()]
    types += [make_e3(), wp_refine(make_e2(), 6).refined]
    assert types[-1].n == 314
    for T in types:
        result, expected = bin_refine(T), bin_refine_by_strips(T)
        assert result.refined == expected.refined
        assert result.label_map == expected.label_map
        assert all(type(label) is HLabel for label in result.label_map)


@settings(max_examples=60)
@given(valid_types())
def test_bin_refine_is_binary_with_alpha_rectangles(T):
    refined = bin_refine(T).refined
    assert refined.n == alpha(T)
    assert is_binary(incidence_matrix(refined))
    assert validate(refined).ok


def test_j_index_examples(e2):
    assert j_index(e2, W12, 0) == 2
    assert j_index(e2, W12, 1) == 1
    assert j_index(e2, PeriodicCode((1,)), 0) == 1


def test_mismatch_examples(e2):
    a = IntervalRef(0, W12)
    b = IntervalRef(0, PeriodicCode((1,)))
    assert mismatch_M(e2, a, b) == 1
    c = IntervalRef(1, W12)
    d = IntervalRef(0, PeriodicCode((2,)))
    assert mismatch_M(e2, c, d) == 1


def test_mismatch_rejects_shift_equal(e2):
    a = IntervalRef(0, W12)
    with pytest.raises(ShiftEqualError):
        mismatch_M(e2, a, a)
    rotated = IntervalRef(1, PeriodicCode((2, 1)))
    with pytest.raises(ShiftEqualError):
        mismatch_M(e2, a, rotated)


def test_mismatch_requires_common_host(e2):
    with pytest.raises(ValueError):
        mismatch_M(e2, IntervalRef(0, W12), IntervalRef(1, W12))


def test_interchange_delta_m1_is_plus_one(e2):
    assert interchange_delta(e2, IntervalRef(0, W12), IntervalRef(0, PeriodicCode((1,)))) == 1


def test_interchange_delta_orientation_branches(e2, e1m):
    # orientation-preserving step before divergence
    a = IntervalRef(0, PeriodicCode((1,)))
    b = IntervalRef(0, PeriodicCode((1, 1, 2)))
    assert mismatch_M(e2, a, b) == 2
    assert interchange_delta(e2, a, b) == 1
    # orientation-reversing step: strip (2,1) of Bin(E1m) has eps = -1
    E2m = bin_refine(e1m).refined
    c = IntervalRef(0, PeriodicCode((2,)))
    d = IntervalRef(0, PeriodicCode((2, 2, 1)))
    assert mismatch_M(E2m, c, d) == 2
    assert interchange_delta(E2m, c, d) == -1


def test_interval_less_canonical_triple(e2):
    a = IntervalRef(0, W12)
    b = IntervalRef(0, PeriodicCode((1, 2, 2)))
    assert interval_less(e2, a, b)
    assert not interval_less(e2, b, a)


def test_interval_less_totality_and_error_paths(e2):
    refs = [
        IntervalRef(0, W12),
        IntervalRef(0, PeriodicCode((1, 2, 2))),
        IntervalRef(0, PeriodicCode((1, 1, 2))),
        IntervalRef(0, PeriodicCode((1,))),
    ]
    for a in refs:
        for b in refs:
            if a == b:
                with pytest.raises(ShiftEqualError):
                    interval_less(e2, a, b)
            else:
                assert interval_less(e2, a, b) != interval_less(e2, b, a)


def test_interval_less_is_strict_total_order():
    for T in binary_mixing_corpus(seed=41, count=5):
        for family in cutting_families(T)[:4]:
            table = build_order(T, family)
            for i in range(1, T.n + 1):
                row = refs(table, i)
                for a, b in permutations(row, 2):
                    assert interval_less(T, a, b) != interval_less(T, b, a)
                for a, b, c in permutations(row, 3):
                    if interval_less(T, a, b) and interval_less(T, b, c):
                        assert interval_less(T, a, c)


def _pairwise_less(T, a, b) -> tuple[bool, int]:
    """Reference order of two cuts from the mismatch time and the orientation
    product before it; also returns that product."""
    M = mismatch_M(T, a, b)
    delta = interchange_delta(T, a, b)
    ja = j_index(T, a.code, a.t + M - 1)
    jb = j_index(T, b.code, b.t + M - 1)
    return (ja < jb if delta == 1 else ja > jb), delta


def test_key_order_matches_pairwise_reference():
    """build_order's key sort against the pairwise mismatch/orientation order,
    on every pair of cuts that share a host, along all non-boundary orbits of
    period <= 6."""
    types = binary_mixing_corpus(seed=73, count=4) + orientation_reversing_bin_types(79, 3)
    period_pairs: set[tuple[int, int]] = set()
    deltas: set[int] = set()
    for T in types:
        boundary = {c.orbit() for c in per_s_codes(T)}
        orbits = enumerate_orbits(incidence_matrix(T), 6)
        family = [o.canonical for o in orbits if o not in boundary]
        table = build_order(T, family)
        order = s_refine(T, family).order
        assert table == order and hash(table) == hash(order) and table.steps == order.steps
        for i in range(1, T.n + 1):
            for a, b in combinations(refs(table, i), 2):
                less, delta = _pairwise_less(T, a, b)
                assert less, (T, a, b)  # a precedes b in the table
                period_pairs.add(tuple(sorted((a.code.period, b.code.period))))
                deltas.add(delta)
    assert (1, 6) in period_pairs  # the longest Fine-Wilf length for P = 6
    assert deltas == {1, -1}  # both orientations before the mismatch


def _signed_walks(T, code, span) -> list[tuple[int, ...]]:
    """Every phase's signed strip sequence of length ``span``, walked step
    by step from that phase on the type's own strip maps."""
    steps: list[tuple[int, int]] = []  # (strip, orientation) of each step
    for t in range(code.period):
        i, k = code.symbol(t), code.symbol(t + 1)
        (j,) = [j for j in range(1, T.h[i - 1] + 1) if T.phi((i, j))[0] == k]
        steps.append((j, T.phi((i, j))[2]))
    walks = []
    for t in range(code.period):
        walk: list[int] = []
        delta = 1  # orientation product of the steps so far
        for m in range(span):
            j, e = steps[(t + m) % code.period]
            walk.append(delta * j)
            delta *= e
        walks.append(tuple(walk))
    return walks


def _phase_keys(T, code, span) -> list[bytes]:
    """The kneading keys of every phase of one code, packed by the library
    off the code's step column, looked up label by label."""
    return _pack_keys(T, step_column_by_labels(T, [code]), (0, code.period), span)


def _check_keys_against_walks(T, code, span) -> set[int]:
    """Each phase's byte key, digit by digit, against its walked signed
    sequence: symbol s is the digit max h + s, in as many big-endian bytes
    as 2 max h needs.  Returns the orientation products delta_t of the
    first t steps over the phases t; phase t's key is the negated slice of
    the sequence when delta_t = -1."""
    H = max(T.h)
    width = 1 if 2 * H < 256 else 2
    keys = _phase_keys(T, code, span)
    assert len(keys) == code.period
    walks = _signed_walks(T, code, span)
    for t, (key, walk) in enumerate(zip(keys, walks)):
        assert type(key) is bytes and len(key) == span * width, (T, code, t)
        for m, symbol in enumerate(walk):
            assert key[m * width : (m + 1) * width] == (H + symbol).to_bytes(width, "big")
        assert decode_key(T, key) == walk, (T, code, t)
        assert _kneading_key(T, IntervalRef(t, code), span) == walk
    return {1 if s > 0 else -1 for s in walks[0][: code.period]}


def test_orbit_keys_match_per_phase_walk():
    """Every phase's byte key, decoded digit by digit, against its signed
    strip sequence, walked step by step from that phase on the type's own
    strip maps, along all non-boundary orbits of period <= 6."""
    types = binary_mixing_corpus(seed=73, count=4) + orientation_reversing_bin_types(79, 3)
    types.append(bin_refine(make_e1m()).refined)
    span = 4 * 6  # build_order's key length at P = 6
    deltas: set[int] = set()
    for T in types:
        boundary = {c.orbit() for c in per_s_codes(T)}
        for orbit in enumerate_orbits(incidence_matrix(T), 6):
            if orbit in boundary:
                continue
            deltas |= _check_keys_against_walks(T, orbit.canonical, span)
    assert deltas == {1, -1}  # both slices: the sequence and its negation


def _full_shift(N: int) -> GeometricType:
    """The full shift on N symbols: strip j of rectangle i maps to (j, i),
    orientation-reversing when i + 2j is a multiple of 3."""
    labels = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    return GeometricType(
        (N,) * N,
        (N,) * N,
        tuple((j, i) for i, j in labels),
        tuple(-1 if (i + 2 * j) % 3 == 0 else 1 for i, j in labels),
    )


def test_wide_digit_keys_on_the_full_shift_on_130_symbols():
    """max h = 130, so a digit takes two bytes: the only keys of more than
    one byte per symbol.  The key sort against the pairwise mismatch order,
    s_refine against the oracle, and recode of a cut code and a non-cut code
    against the bands read off the exact cut heights."""
    T = _full_shift(130)
    boundary = {c.orbit() for c in per_s_codes(T)}
    words = [(2,), (129, 3), (7, 128), (64, 65, 2), (128, 127, 130), (7, 5, 100), (130, 1, 1)]
    family = [PeriodicCode(w) for w in words]
    assert not {w.orbit() for w in family} & boundary
    span = 4 * 3
    deltas: set[int] = set()
    for code in family:
        deltas |= _check_keys_against_walks(T, code, span)
        assert len(_phase_keys(T, code, span)[0]) == 2 * span
    assert deltas == {1, -1}

    table = build_order(T, family)
    hosts = [i for i in range(1, T.n + 1) if count(table, i) >= 2]
    assert hosts
    for i in hosts:
        for a, b in combinations(refs(table, i), 2):
            assert interval_less(T, a, b) and not interval_less(T, b, a)
            assert _pairwise_less(T, a, b)[0], (a, b)

    result = s_refine(T, family)
    geometric = oracle_s_refine(T, family)
    assert (result.refined, result.label_map) == (geometric.refined, geometric.label_map)

    model = realize(T)
    branches = branches_by_labels(T)
    heights = [sorted(y for y, _, _ in bucket) for bucket in geometric.cut_heights]
    band = {label: r for r, label in enumerate(geometric.label_map, start=1)}
    other = PeriodicCode((5, 9))
    assert other.orbit() not in boundary | {w.orbit() for w in family}
    expected = []
    for t in range(other.period):
        y = periodic_point(model, other, t).y
        i = other.symbol(t)
        expected.append(band[(i, 1 + sum(1 for h in heights[i - 1] if h < y))])
    assert result.recode(other) == {PeriodicCode(primitive_root(tuple(expected)))}
    for code in family:
        sides = []  # (band below, band above, orientation of the step) at each phase
        for t in range(code.period):
            i, k = code.symbol(t), code.symbol(t + 1)
            p = 1 + heights[i - 1].index(periodic_point(model, code, t).y)
            a = model.a[T.lex_index((i, branches[(i, k)][0])) - 1]
            sides.append((band[(i, p)], band[(i, p + 1)], 1 if a > 0 else -1))
        below: list[int] = []
        above: list[int] = []
        delta = 1
        for t in range(2 * code.period):
            low, high, sign = sides[t % code.period]
            below.append(low if delta == 1 else high)
            above.append(high if delta == 1 else low)
            delta *= sign
        flanks = {PeriodicCode(primitive_root(tuple(x))) for x in (below, above)}
        assert result.recode(code) == flanks, code


def test_build_order_examples(e2):
    table = build_order(e2, [W12])
    assert count(table, 1) == 1 and count(table, 2) == 1
    assert "entries" not in table.__dict__  # counting a row builds no IntervalRef
    assert table.steps == [2, 1] and "steps" not in repr(table)
    assert position(table, IntervalRef(0, W12)) == 1
    assert position(table, IntervalRef(1, W12)) == 1
    empty = build_order(e2, [])
    assert count(empty, 1) == 0 and count(empty, 2) == 0
    for i in (0, 3):  # outside 1..n: no wrap onto the last rectangle
        for read in (lambda i: count(table, i), lambda i: refs(table, i)):
            with pytest.raises(ValueError, match=rf"^rectangle {i} is not a rectangle of this"):
                read(i)


def test_build_order_error_cases(e2):
    with pytest.raises(BoundaryCodeError, match="s-boundary code"):
        build_order(e2, [PeriodicCode((1,))])
    assert build_order(e2, [PeriodicCode((1,))], drop_boundary=True).family == ()
    with pytest.raises(DuplicateOrbitError):
        build_order(e2, [W12, PeriodicCode((2, 1))])
    with pytest.raises(AdmissibilityError):
        build_order(make_e3(), [PeriodicCode((1, 4))])


# -- s refinement ---------------------------------------------------------------


def test_s_refine_worked_example(e2, e3):
    result = s_refine(e2, [W12])
    assert result.refined == e3
    assert result.label_map == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert result.refined.h == (3, 1, 1, 3)
    assert result.refined.v == (2, 2, 2, 2)


def test_s_refine_empty_family_is_identity(e2, e3):
    """A family that cuts nothing returns T itself, and every admissible
    code recodes to itself, with no cut marks built; an inadmissible code
    still raises."""
    result = s_refine(e2, [])
    assert result.refined is e2
    assert result.label_map == ((1, 1), (2, 1))
    assert result.order.cuts == ((), ())
    for code in (W12, PeriodicCode((2, 1, 1)), PeriodicCode((2,))):
        assert result.recode(code) == {code}
    assert "_marks" not in result.__dict__
    with pytest.raises(AdmissibilityError, match=r"^code 1 4 is not admissible for this type$"):
        s_refine(e3, []).recode(PeriodicCode((1, 4)))


def test_s_refine_boundary_code_errors(e2):
    with pytest.raises(BoundaryCodeError):
        s_refine(e2, [PeriodicCode((1,))])


def test_s_refine_recoded_cut_codes_are_boundary(e2):
    result = s_refine(e2, [W12])
    recoded = result.recode(W12)
    assert {c.word for c in recoded} == {(1, 3), (2, 4)}
    assert recoded <= per_s_codes(result.refined)
    # the same cut code pointed at its other phase keeps that phase
    assert {c.word for c in result.recode(W12.rotate(1))} == {(3, 1), (4, 2)}


def test_recode_tracks_orientation_reversal():
    """A cut through an orientation-reversing strip swaps its two sides each
    step, so the flanking boundary codes have twice the cut code's period."""
    from geotype import GeometricType

    T = GeometricType.build(
        (2, 2),
        (2, 2),
        {(1, 1): (1, 1, 1), (1, 2): (2, 1, 1), (2, 1): (2, 2, -1), (2, 2): (1, 2, -1)},
    )
    w = PeriodicCode((2,))
    result = s_refine(T, [w])
    recoded = result.recode(w)
    assert {c.word for c in recoded} == {(2, 3), (3, 2)}
    assert recoded <= per_s_codes(result.refined)


def test_out_of_range_symbols_raise_admissibility_error(e2):
    """A symbol above n is reported as such, as the cutting-family check does,
    by the strip lookup and by recoding on every kind of result."""
    code = PeriodicCode((3, 1))
    message = r"symbol out of range 1\.\.2 in word \(3, 1\)"
    with pytest.raises(AdmissibilityError, match=message):
        j_index(e2, code, 0)
    for result in (s_refine(e2, [W12]), u_refine(e2, [W12]), corner_refine_along(e2, [W12])):
        with pytest.raises(AdmissibilityError, match=message):
            result.recode(code)


def test_s_refine_count_identities():
    for T in binary_mixing_corpus(seed=43, count=6):
        for family in cutting_families(T)[:5]:
            result = s_refine(T, family)
            order = result.order
            expected_n = sum(count(order, i) + 1 for i in range(1, T.n + 1))
            assert result.refined.n == expected_n
            for r, (i, s) in enumerate(result.label_map, start=1):
                assert result.refined.v[r - 1] == T.v[i - 1]
            assert sum(result.refined.h) == sum(result.refined.v)
            assert validate(result.refined).ok
            assert is_binary(incidence_matrix(result.refined))


def test_equal_cut_counts_give_equal_rho_and_eps():
    """Each source strip's refined strips are its target rectangle's whole
    block of bands, so two families that cut every rectangle the same number
    of times give the same rho and eps, wherever their cuts lie."""
    compared = 0
    for T in orientation_reversing_bin_types(131, 6):
        first: dict[tuple[int, ...], GeometricType] = {}
        for family in cutting_families(T, max_period=5, max_total=10):
            result = s_refine(T, family)
            refined, counts = result.refined, tuple(map(len, result.order.cuts))
            other = first.setdefault(counts, refined)
            assert (refined.rho, refined.eps) == (other.rho, other.eps)
            compared += refined.h != other.h
    assert compared >= 10


@pytest.mark.parametrize("corrupt", ["swap", "repeat"])
def test_assemble_rejects_a_corrupted_order_table(e2, corrupt):
    """Two cuts of rectangle 1 swapped, or one of them repeated, put the cut
    offsets of rectangle 1 out of order."""
    order = build_order(e2, [W12, PeriodicCode((1, 2, 2))])
    row = order.cuts[0]
    assert len(row) == 2
    bad = (row[1], row[0]) if corrupt == "swap" else (row[0],) + row
    corrupted = OrderTable(order.family, (bad,) + order.cuts[1:], order.steps)
    assert corrupted.steps is order.steps
    with pytest.raises(InvariantError, match=r"cut lines of rectangle 1 are out of order"):
        _assemble(e2, corrupted)


def test_sort_rejects_a_line_cut_twice(e2, e3):
    """Two phases of one orbit passed past the family check carry the same
    cut lines, so their kneading keys are equal: the sort raises rather
    than keep one of each pair.  Equal keys in two hosts are two lines: on
    E3, phase 0 of (1 1 3) in rectangle 1 and phase 0 of (2 4 4) in
    rectangle 2 have one key, and each keeps its own row."""
    with pytest.raises(InvariantError, match="equal kneading keys"):
        twice = (W12, W12.rotate(1))
        _sort_cuts(e2, twice, step_column_by_labels(e2, twice))
    family = (PeriodicCode((1, 1, 3)), PeriodicCode((2, 4, 4)))
    assert _phase_keys(e3, family[0], 12)[0] == _phase_keys(e3, family[1], 12)[0]
    order = _sort_cuts(e3, family, step_column_by_labels(e3, family))
    assert [[pair(order, c) for c in row] for row in order.cuts] == [
        [(0, 0), (0, 1)], [(1, 0)], [(0, 2)], [(1, 2), (1, 1)]
    ]


def test_r_of_counts_bands_and_rejects_a_label_outside(e2):
    """r is the number of bands of the rectangles before i, plus s, on both
    sides; a label outside the result raises ``ValueError`` naming it, as
    the reference ``count`` does for a rectangle."""
    results = (s_refine(e2, [W12]), u_refine(e2, [W12]), s_refine(e2, [W12, PeriodicCode((1, 2, 2))]))
    for result in results:
        n = result.refined.n
        assert [r_of(result, i, s) for i, s in result.label_map] == list(range(1, n + 1))
        outside = [(i, count(result.order, i) + 2) for i in (1, 2)] + [(0, 1), (3, 1), (1, 0), (2, 9)]
        for i, s in outside:
            with pytest.raises(ValueError, match=rf"^label \({i},{s}\) is not a band of this result$"):
                r_of(result, i, s)
    with pytest.raises(GeoTypeError, match="pipeline results have no single label map"):
        r_of(corner_refine(e2), 1, 1)



def test_pair_rejects_a_cut_id_outside(e2):
    """The reference ``pair`` maps every cut id 0..cuts-1 to its (f, t); an
    id outside raises ``ValueError`` naming it and the range, as ``count``
    does for a rectangle, on both sides and on a table with no cuts."""
    for result in (s_refine(e2, [W12]), u_refine(e2, [W12])):
        order = result.order
        assert [pair(order, c) for c in range(2)] == [(0, 0), (0, 1)]
        for c in (2, -1, 5):
            with pytest.raises(ValueError, match=rf"^cut {c} is not a cut of this table \(0..1\)$"):
                pair(order, c)
    empty = build_order(e2, [])
    with pytest.raises(ValueError, match=r"^cut 0 is not a cut of this table \(0\.\.-1\)$"):
        pair(empty, 0)


def _interleaved_family(T: GeometricType, unstable: bool, rng: random.Random) -> tuple[list, list]:
    """(W, kept): up to six non-boundary orbits of period <= 5 of one side,
    each at a random phase, with that side's boundary codes at random
    phases put before, between and after them, at least one between two
    kept codes when there are two."""
    boundary = boundary_orbits(T, unstable=unstable)
    orbits = [o for o in enumerate_orbits(incidence_matrix(T), 5) if o not in boundary]

    def phase(orbit: CodeOrbit) -> PeriodicCode:
        return orbit.canonical.rotate(rng.randrange(orbit.period))

    kept = [phase(o) for o in rng.sample(orbits, min(6, len(orbits)))]
    dropped = [phase(o) for o in sorted(boundary, key=CodeOrbit.sort_key)]
    W = [rng.choice(dropped)]
    for f, code in enumerate(kept):
        W.append(code)
        if f + 1 < len(kept) and (f == 0 or rng.random() < 0.5):
            W.append(rng.choice(dropped))
    W.append(rng.choice(dropped))
    return W, kept


def _reference_offsets(T: GeometricType, family) -> list[int]:
    """Each cut line's offset in its host's run of blocks, rectangle by
    rectangle, bottom-up, placed from the pairwise order ``interval_less``:
    a cut of rectangle i lies in the strip (i, j) that maps into its
    successor's rectangle (``j_index``), p past the start of that strip's
    block, or p before its end when the strip reverses orientation, where
    p is the successor's position among its rectangle's cut lines.  A
    strip's block has one band more than its target rectangle has cuts."""
    refs = [IntervalRef(t, code) for code in family for t in range(code.period)]
    hosted = [[ref for ref in refs if ref.host == i] for i in range(1, T.n + 1)]
    rows = [
        sorted(row, key=lambda a: sum(interval_less(T, b, a) for b in row if b is not a))
        for row in hosted
    ]
    place = {(ref.t, ref.code): p for row in rows for p, ref in enumerate(row, start=1)}
    starts = {}
    run = 0
    for i, j in T.h_labels():
        starts[(i, j)] = run
        run += len(rows[T.phi((i, j))[0] - 1]) + 1
    offsets = []
    for row in rows:
        for ref in row:
            i, j = ref.host, j_index(T, ref.code, ref.t)
            p = place[((ref.t + 1) % ref.code.period, ref.code)]
            if T.phi((i, j))[2] == 1:
                offsets.append(starts[(i, j)] + p)
            else:
                offsets.append(starts[(i, j)] + len(rows[T.phi((i, j))[0] - 1]) + 1 - p)
    return offsets


@pytest.mark.parametrize("unstable", [False, True], ids=["s", "u"])
def test_dropped_boundary_codes_leave_the_step_column(unstable):
    """Seeded families whose boundary codes sit before, between and after
    the kept codes, on binary mixing types and on types with
    orientation-reversing strips: the checked family's step column is the
    one looked up for the kept codes alone, dropping the boundary codes
    refines as the kept codes alone do, and the engine's cut marks, read
    off the column, are those placed from the pairwise reference order, on
    T for the stable side and on the inverse for the unstable side.  The
    checked column is the inner order table's on both sides: the unstable
    check looks the reversed codes up on the inverse."""
    rng = random.Random(71 + unstable)
    types = binary_mixing_corpus(seed=73, count=5) + orientation_reversing_bin_types(79, 4)
    refine = u_refine if unstable else s_refine
    checked = reversing = 0
    for T in types:
        for _ in range(3):
            W, kept = _interleaved_family(T, unstable, rng)
            side, codes = (T, kept)
            if unstable:
                side, codes = invert(T), [w.reversed_pointed() for w in kept]
            family, steps = boundary._checked_family(T, W, unstable=unstable, drop_boundary=True)
            assert family == tuple(kept) and steps == step_column_by_labels(side, codes), W
            dropped, alone = refine(T, W, drop_boundary=True), refine(T, kept)
            assert dropped.refined == alone.refined, W
            assert serialize_result(dropped) == serialize_result(alone), W
            inner = dropped.stages[0] if unstable else dropped
            assert inner.order.family == tuple(codes) and inner.order.steps == steps, W
            sizes = _blocks(side, [len(row) + 1 for row in inner.order.cuts])[0]
            runs = tuple(accumulate(sizes, initial=0))
            marks = _cut_marks(side, inner.order, runs)
            assert marks == _reference_offsets(side, codes), W
            checked += len(W) > len(kept) + 1 and len(kept) > 1
            reversing += min(steps) < 0
    assert checked == 27 and reversing >= 12, (checked, reversing)


def _split_family(T: GeometricType, P: int, unstable: bool) -> tuple[list, list]:
    """One side's non-boundary orbits of period <= P, split into halves."""
    boundary = boundary_orbits(T, unstable=unstable)
    family = [o.canonical for o in enumerate_orbits(incidence_matrix(T), P) if o not in boundary]
    return family[: len(family) // 2], family[len(family) // 2 :]


@pytest.mark.parametrize("unstable", [False, True], ids=["s", "u"])
def test_cutting_passes_compose(e2, unstable):
    """Refining along one half of a family and then along the recodes of
    the other gives, renumbered by (i, s1, s2), the refinement along the
    whole family: on the seeded corpora at P = 2, 3, 4 and on E2 at P = 10.
    It sees the strip order inside every target block, which the ranks of
    the cut marks feed."""
    checked = 0
    for T in binary_mixing_corpus(11, 8) + orientation_reversing_bin_types(12, 6):
        for P in (2, 3, 4):
            W1, W2 = _split_family(T, P, unstable)
            if W1:
                assert composes(T, W1, W2, unstable), (T, P)
                checked += 1
    assert checked == (36 if unstable else 34)
    W1, W2 = _split_family(e2, 10, unstable)
    assert len(W1) + len(W2) == 224
    assert composes(e2, W1, W2, unstable)


@pytest.mark.slow
@pytest.mark.parametrize("unstable", [False, True], ids=["s", "u"])
@pytest.mark.parametrize("P, orbits", [(12, 745), (14, 2536)], ids=["P12", "P14"])
def test_cutting_passes_compose_at_scale(e2, P, orbits, unstable):
    """Two cutting passes compose on E2 along its non-boundary orbits of
    period <= 12 and <= 14, split into halves."""
    W1, W2 = _split_family(e2, P, unstable)
    assert len(W1) + len(W2) == orbits
    assert composes(e2, W1, W2, unstable)


def test_s_refine_recoding_property():
    for T in binary_mixing_corpus(seed=47, count=5):
        for family in cutting_families(T)[:3]:
            result = s_refine(T, family)
            boundary = per_s_codes(result.refined)
            for code in family:
                assert result.recode(code) <= boundary


def test_recoded_cut_codes_shadow_every_phase():
    """Each flanking code of a cut code, given at any phase, runs through
    refined rectangles whose source rectangles spell the cut code itself."""
    corpus = binary_mixing_corpus(seed=47, count=5) + orientation_reversing_bin_types(3, 4)
    checked = 0
    for T in corpus:
        u_boundary = {c.orbit() for c in per_u_codes(T)}
        for family in cutting_families(T)[:3]:
            s_result = s_refine(T, family)
            u_family = [w for w in family if w.orbit() not in u_boundary]
            u_result = u_refine(T, u_family)
            for result, codes in ((s_result, family), (u_result, u_family)):
                for w in codes:
                    for d in range(w.period):
                        code = w.rotate(d)
                        recoded = result.recode(code)
                        assert len(recoded) == 2
                        for c in recoded:
                            checked += 1
                            assert all(
                                result.label_map[c.symbol(t) - 1][0] == code.symbol(t)
                                for t in range(c.period)
                            ), (code, c)
                        if result is s_result:
                            assert recoded <= per_s_codes(result.refined)
    assert checked > 200


def test_s_refine_orbit_vs_phase_feeding(e2, e3):
    """Every phase of an orbit cuts the same lines as the representative."""
    assert s_refine(e2, [PeriodicCode((2, 1))]).refined == e3
    for T in binary_mixing_corpus(seed=53, count=4):
        for family in cutting_families(T)[:2]:
            a = s_refine(T, family)
            for t in range(1, max(w.period for w in family)):
                b = s_refine(T, [w.rotate(t) for w in family])
                assert b.refined == a.refined


# -- u refinement -----------------------------------------------------------------


def test_u_refine_worked_example(e2):
    result = u_refine(e2, [W12])
    assert result.refined.n == 4
    assert sorted(result.refined.v) == [1, 1, 3, 3]
    assert sum(result.refined.h) == sum(result.refined.v) == 8
    for r, (i, s) in enumerate(result.label_map, start=1):
        assert result.refined.h[r - 1] == e2.h[i - 1]


def test_u_refine_empty_family_is_identity(e2):
    result = u_refine(e2, [])
    assert result.refined is e2
    assert result.label_map == ((1, 1), (2, 1))
    assert result.stages[0].refined is invert(e2)


def test_u_refine_boundary_code_errors(e2):
    with pytest.raises(BoundaryCodeError, match="u-boundary code"):
        u_refine(e2, [PeriodicCode((2,))])


def test_u_refine_checks_its_family_once(monkeypatch, e2):
    """The family is checked once, as an unstable family of T; the stable
    refinement of the inverse type then runs past that check, on the step
    column it returned."""
    calls: list[tuple] = []
    real = geotype.refine._checked_family

    def counting(T, W, **kwargs):
        checked = real(T, W, **kwargs)
        calls.append((T, kwargs, checked))
        return checked

    monkeypatch.setattr(geotype.refine, "_checked_family", counting)
    result = u_refine(e2, [W12])
    ((T, kwargs, (family, steps)),) = calls
    assert T is e2 and kwargs == {"unstable": True, "drop_boundary": False}
    assert family == (W12,) and result.stages[0].order.steps is steps


@pytest.mark.parametrize(
    "make, words, error, message",
    [
        (make_e2, [(2,)], BoundaryCodeError, "u-boundary code 2 in cutting family cuts nothing"),
        (make_e2, [(1, 2), (2, 1)], DuplicateOrbitError, "duplicate orbit 1 2 in cutting family"),
        (make_e2, [(3, 1)], AdmissibilityError, "symbol out of range 1..2 in word (3, 1)"),
        (make_e3, [(2, 3)], AdmissibilityError, "code 2 3 is not admissible for this type"),
        (make_e1, [], NonBinaryError, "incidence matrix is not binary"),
    ],
)
def test_u_refine_family_errors(make, words, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        u_refine(make(), [PeriodicCode(w) for w in words])


def test_u_refine_duality():
    for T in binary_mixing_corpus(seed=59, count=5):
        for family in cutting_families(T)[:3]:
            u_boundary = {c.orbit() for c in per_u_codes(T)}
            family = [w for w in family if w.orbit() not in u_boundary]
            result = u_refine(T, family)
            mirror = s_refine(invert(T), [w.reversed_pointed() for w in family])
            assert invert(result.refined) == mirror.refined


# -- corner and bounded-period pipelines --------------------------------------------


def test_corner_refine_fixed_point(e2):
    result = corner_refine(e2)
    assert result.refined is e2
    assert all(stage.refined is stage.source for stage in result.stages)


def test_corner_refine_e3(e3):
    result = corner_refine(e3)
    assert has_corner_property(result.refined)
    assert result.refined.n == 8


def test_corner_refine_corpus_postcondition():
    for T in binary_mixing_corpus(seed=61, count=6):
        result = corner_refine(T)
        assert has_corner_property(result.refined)


def test_corner_refine_along_example(e2):
    result = corner_refine_along(e2, [W12])
    assert has_corner_property(result.refined)
    final_s = per_s_codes(result.refined)
    for code in result.recode(W12):
        assert code in final_s


def test_corner_refine_along_requires_corner_property(e3):
    with pytest.raises(GeoTypeError, match="corner property"):
        corner_refine_along(e3, [])


def test_wp_refine_examples(e2):
    assert wp_refine(e2, 1).refined == e2
    result = wp_refine(e2, 2)
    assert result.refined.n >= 4
    assert has_corner_property(result.refined)
    with pytest.raises(PeriodBoundError, match="P below"):
        wp_refine(e2, 0)


def test_pass_order_and_period_steps_are_not_identities(e2):
    """The two non-identities in the docstrings of ``corner_refine`` and
    ``wp_refine``: on E2, an s-pass then a u-pass is not the u-pass then the
    s-pass, and ``wp_refine(E2, 4)`` is not ``wp_refine(E2, 3)`` cut along
    the recodes of the period-4 orbits."""

    def recoded(result, code):
        (shadow,) = result.recode(code)
        return shadow

    A, B = W12, PeriodicCode((1, 2, 2))
    s_first = s_refine(e2, [A])
    u_first = u_refine(e2, [B])
    su = u_refine(s_first.refined, [recoded(s_first, B)]).refined
    us = s_refine(u_first.refined, [recoded(u_first, A)]).refined
    assert (su.n, sum(su.h)) == (us.n, sum(us.h)) == (7, 15)
    assert sorted(su.h) != sorted(us.h)

    three, four = wp_refine(e2, 3), wp_refine(e2, 4)
    codes = [o.canonical for o in enumerate_orbits(incidence_matrix(e2), 4) if o.period == 4]
    for stage in three.stages:
        codes = [recoded(stage, code) for code in codes]
    stepped = corner_refine_along(three.refined, codes).refined
    assert (stepped.n, sum(stepped.h)) == (four.refined.n, 130) and sum(four.refined.h) == 126
    assert sorted(stepped.h) != sorted(four.refined.h)


def test_wp_refine_corner_s_pass_returns_its_source(e2):
    """Stage 1 cuts only stable lines, so the corner s-pass has an empty
    family; it returns its source object, and the u-pass starts from it."""
    result = wp_refine(e2, 6)
    assert len(result.stages) == 3
    s_pass, u_pass = result.stages[1:]
    assert s_pass.refined is s_pass.source is result.stages[0].refined
    assert u_pass.source is s_pass.refined
    assert s_pass.label_map == tuple((i, 1) for i in range(1, s_pass.source.n + 1))


def test_wp_refine_builds_no_copy_for_its_empty_pass(monkeypatch, e2):
    """wp_refine(E2, 6) builds five types: invert(E2) for the corner check,
    stage 1's refined type, and in the u-pass the inverse of its input, the
    inverse's stable refinement and that refinement's inverse.  A corner
    s-pass that assembled a copy of its input would add two: the copy and
    the copy's inverse."""
    built: list[int] = []
    real = GeometricType._store

    def counting(self, *fields):
        real(self, *fields)
        built.append(self.n)

    monkeypatch.setattr(GeometricType, "_store", counting)
    result = wp_refine(e2, 6)
    assert len(built) == 5
    assert built[-1] == result.refined.n == 314


def test_wp_pipeline_leaves_no_reference_cycles(e2):
    """A type, its inverse and the results that chain them free by reference
    counting alone: a back-reference or a closure cycle left for the cyclic
    collector would show here before it shows as a latency spike.  So do
    enumerated orbits, the orbits their codes keep (a key code's orbit is
    keyed by a new code, not by the key), both sides' boundary orbits and
    the classification of a code."""
    from geotype.oracle import oracle_s_refine

    gc.collect()
    gc.disable()
    try:
        result = wp_refine(e2, 6)
        for stage in result.stages[:2]:
            oracle_s_refine(stage.source, stage.order.family)
        result.recode(W12)
        del result, stage
        assert gc.collect() == 0
        T = bin_refine(make_e1m()).refined
        orbits = enumerate_orbits(incidence_matrix(T), 8)
        kept = [code.orbit() for o in orbits for code in (o.canonical, *o.phases())]
        sides = [
            c.orbit() for unstable in (False, True)
            for o in boundary_orbits(T, unstable=unstable) for c in o.phases()
        ]
        words = [o.canonical.word for o in orbits if o.period <= 4]
        verdicts = {classify_code(T, EventuallyPeriodicCode(w, (), w)) for w in words}
        assert verdicts == {"interior", "corner-leaf"} and kept and sides
        del T, orbits, kept, sides
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recode_batch_builds_the_marks_once(monkeypatch):
    """Band assembly places the cut marks once and hands them to its
    result, so a batch of recodes through that result places none.  A
    result built from the same order table places the same marks once, on
    its first recode.  Both keep them on the result alone: the order table
    and the source type gain nothing.  Every code gives what the built
    result gives."""
    T = bin_refine(make_e1m()).refined
    orbits = enumerate_orbits(incidence_matrix(T), 6)
    s_orbits = {c.orbit() for c in per_s_codes(T)}
    built: list = []
    real = geotype.refine._cut_marks

    def counting(T, order, runs):
        built.append(order)
        return real(T, order, runs)

    monkeypatch.setattr(geotype.refine, "_cut_marks", counting)
    result = s_refine(T, [o.canonical for o in orbits if o not in s_orbits])
    assert len(built) == 1 and built[0] is result.order and "_marks" in vars(result)
    batch = [code for o in orbits for code in sorted(o.phases(), key=lambda c: c.word)]
    kept = set(vars(result.order)), set(vars(T))
    built.clear()
    fresh = RefinementResult(result.refined, result.source, result.kind, result.order, result.stages)
    assert "_marks" not in vars(fresh)
    expected = [fresh.recode(code) for code in batch]
    assert len(built) == 1 and built[0] is result.order
    marks, runs = fresh._marks
    assert (marks, list(runs)) == (result._marks[0], list(result._marks[1]))
    built.clear()
    assert [result.recode(code) for code in batch] == expected
    assert built == []
    assert (set(vars(result.order)), set(vars(T))) == kept


def test_recode_marks_are_the_band_edges_of_assembly(e2):
    """The marks a recode bisects are the refined type's band edges in the
    run of blocks, each rectangle's top edge left out: on every stable
    stage of s_refine and u_refine along the seeded corpora's cutting
    families, and of wp_refine(E2, P) for P = 2..6."""
    results = []
    for T in TRANSPORT_CORPUS:
        u_boundary = {c.orbit() for c in per_u_codes(T)}
        for family in cutting_families(T)[:4]:
            results += [s_refine(T, family), u_refine(T, [w for w in family if w.orbit() not in u_boundary])]
    for P in range(2, 7):
        results += wp_refine(e2, P).stages
    stages = [r.stages[0] if r.kind == "u" else r for r in results]
    checked = 0
    for stage in stages:
        if not stage.order.family:
            continue
        tops = set(accumulate(len(row) + 1 for row in stage.order.cuts))
        edges = list(accumulate(stage.refined.h))
        assert stage._marks[0] == [e for b, e in enumerate(edges, start=1) if b not in tops]
        checked += 1
    assert checked >= 100, checked


def _recode_golden() -> str:
    """Every phase of every orbit of period <= 6, recoded through each
    stage of ``wp_refine(E2, 6)`` in turn, and through the s and u passes
    of bin(E1m) along ``E1m_bin_4.codes`` and, with ``drop_boundary``,
    along ``E1m_bin_drop.codes``."""
    lines = []
    E2 = make_e2()
    phases = [code for o in enumerate_orbits(incidence_matrix(E2), 6) for code in o.phases()]
    lines += recode_chain("wp E2 6", wp_refine(E2, 6).stages, phases)
    T = bin_refine(make_e1m()).refined
    phases = [code for o in enumerate_orbits(incidence_matrix(T), 6) for code in o.phases()]
    for name, drop in (("E1m_bin_4", False), ("E1m_bin_drop", True)):
        W = parse_codes((GOLDEN / f"{name}.codes").read_text())
        for refine in (s_refine, u_refine):
            result = refine(T, W, drop_boundary=drop)
            lines += recode_chain(f"{refine.__name__[0]} {name}", [result], phases)
    return "\n".join(lines) + "\n"


def test_recode_golden():
    """Recodes are printed by no command, so this golden holds them: cut
    codes and codes that cross no cut line, on both sides, behind
    orientation-reversing strips and through a three-stage pipeline."""
    assert _recode_golden() == (GOLDEN / "recode_E2_wp6.txt").read_text()


def test_every_stage_intertwines_the_transition_matrices(e2):
    """The oracle-free factor-map identity, unsigned and signed, on every
    s_refine and u_refine of the seeded corpora along all their cutting
    families, on every stage of corner_refine, and on every stage of
    wp_refine(E2, P) for P = 2..8.  A result whose label map sends two
    refined rectangles to the wrong sources fails it."""
    corpus = binary_mixing_corpus(seed=47, count=5) + orientation_reversing_bin_types(3, 4)
    results = []
    for T in corpus:
        u_boundary = {c.orbit() for c in per_u_codes(T)}
        for family in cutting_families(T):
            results.append(s_refine(T, family))
            u_family = [w for w in family if w.orbit() not in u_boundary]
            results.append(u_refine(T, u_family))
    for T in corpus + binary_mixing_corpus(seed=61, count=6):
        results.extend(corner_refine(T).stages)
    for P in range(2, 9):
        results.extend(wp_refine(e2, P).stages)
    assert len(results) > 400 and {r.kind for r in results} == {"s", "u"}
    for result in results:
        assert intertwines(result) and intertwines(result, signed=True), result.source

    for result in (s_refine(e2, [W12]), u_refine(e2, [W12])):
        (i, s), *middle, (k, t) = result.label_map
        assert i != k
        swapped = ((k, s), *middle, (i, t))
        swapped_result = SimpleNamespace(
            kind=result.kind, source=result.source, refined=result.refined, label_map=swapped
        )
        assert not intertwines(swapped_result)


def test_wp_refine_recodings_are_boundary(e2):
    A = incidence_matrix(e2)
    for P in (1, 2, 3):
        result = wp_refine(e2, P)
        b_codes = boundary_sets(result.refined).b_codes
        for orbit in enumerate_orbits(A, P):
            recoded = result.recode(orbit.canonical)
            assert recoded
            assert recoded <= b_codes


TRANSPORT_CORPUS = [
    *binary_mixing_corpus(seed=11, count=8),
    *orientation_reversing_bin_types(12, 6),
    bin_refine(make_e1m()).refined,
]


def _assert_recodes_match_cycles(count: int, P: int) -> None:
    """Every phase of every orbit of period <= P, recoded through s- and
    u-passes with ``drop_boundary`` along ``count`` spread families of
    each seeded type and E3, and along all its orbits of period <= P + 1,
    against the brute-force cycles over it."""
    flanks = reversing = 0
    for T in [*TRANSPORT_CORPUS, make_e3()]:
        families = cutting_families(T)
        orbits = enumerate_orbits(incidence_matrix(T), P + 1)
        codes = [code for o in orbits if o.period <= P for code in o.phases()]
        every = [o.canonical for o in orbits]
        for W in [*families[:: max(1, len(families) // count)][:count], every]:
            for refine in (s_refine, u_refine):
                result = refine(T, W, drop_boundary=True)
                for code in codes:
                    recoded = result.recode(code)
                    assert recoded == recode_by_cycles(result, code), (T, W, code)
                    flanks += len(recoded) == 2
                    reversing += len(recoded) == 2 and any(c.period > code.period for c in recoded)
    assert flanks >= 100 and reversing >= 10, (flanks, reversing)


def test_recode_matches_the_cycle_reference():
    """Each recode is every refined periodic code over the code, no more
    and no fewer: 6 families per type, codes of period <= 3."""
    _assert_recodes_match_cycles(6, 3)


@pytest.mark.slow
def test_recode_matches_the_cycle_reference_at_scale():
    """The same with 20 families per type and codes of period <= 4."""
    _assert_recodes_match_cycles(20, 4)


@pytest.mark.parametrize("drop_boundary", [False, True], ids=["keep", "drop"])
@pytest.mark.parametrize("unstable", [False, True], ids=["s", "u"])
def test_single_passes_transport_boundary_orbits_exactly(unstable, drop_boundary):
    """A pass along every orbit of period <= P, P = 2..4, of each seeded
    type, those on the cut side's boundary left out or dropped: the refined
    boundary orbits of the cut side are the recodes of the source's
    boundary there and of the family, those of the other side the recodes
    of its boundary alone, with no orbit more or less."""
    refine = u_refine if unstable else s_refine
    reversing = 0
    for T in TRANSPORT_CORPUS:
        boundary = boundary_orbits(T, unstable=unstable)
        orbits = enumerate_orbits(incidence_matrix(T), 4)
        for P in (2, 3, 4):
            W = [o.canonical for o in orbits if o.period <= P and (drop_boundary or o not in boundary)]
            result = refine(T, W, drop_boundary=drop_boundary)
            assert transported_boundary(result, W, unstable), (T, P)
            assert transported_boundary(result, [], not unstable), (T, P)
            reversing += -1 in T.eps and result.refined is not T
    assert reversing >= 12


def test_corner_refine_transports_boundary_orbits_exactly(e3):
    """Each side of ``corner_refine(T)`` is the recodes of T's s- and
    u-boundary orbits, on the seeded types, with and without the corner
    property, and on E3."""
    lacking = 0
    for T in [*TRANSPORT_CORPUS, *binary_mixing_corpus(seed=61, count=6), e3]:
        result = corner_refine(T)
        s_side, u_side = boundary_orbits(T), boundary_orbits(T, unstable=True)
        for unstable, other in ((False, u_side), (True, s_side)):
            assert transported_boundary(result, [o.canonical for o in other], unstable), T
        lacking += s_side != u_side
    assert lacking >= 3


def _assert_wp_transports(T: GeometricType, P: int) -> None:
    result = wp_refine(T, P)
    codes = [o.canonical for o in enumerate_orbits(incidence_matrix(T), P)]
    for unstable in (False, True):
        assert transported_boundary(result, codes, unstable), (P, unstable)


def test_wp_refine_transports_boundary_orbits_exactly(e2):
    """Each side of ``wp_refine(E2, P)``, P = 2..8, is the recodes of E2's
    boundary on that side and of every orbit of period <= P."""
    for P in range(2, 9):
        _assert_wp_transports(e2, P)


@pytest.mark.slow
def test_wp_refine_transports_boundary_orbits_exactly_at_scale(e2):
    """The same identity at P = 12, through 745 orbits of period <= 12."""
    _assert_wp_transports(e2, 12)


def _assert_keeps_walked_orbits(stage: RefinementResult) -> None:
    """The key words of both sides kept on the refined type of
    ``corner_refine_along``'s first pass are the keys of the reference
    walk's orbits, and neither that type nor its inverse has built a gamma
    table."""
    T = stage.refined
    assert T is not stage.source
    for unstable in (False, True):
        walked = walked_boundary_orbits(T, unstable)
        assert T._boundary_words[unstable] == {o.canonical.word for o in walked}, unstable
    assert "_gamma" not in vars(T) and "_gamma" not in vars(invert(T))


def test_wp_refine_keeps_transported_boundary_orbits(e2):
    """The first pass of wp_refine(E2, P), P = 2..8, keeps each side's
    boundary orbits as read off its cut lines, not walked: they are the
    reference walk's, and no gamma table was built for them."""
    for P in range(2, 9):
        _assert_keeps_walked_orbits(wp_refine(e2, P).stages[0])


def test_corner_refine_along_keeps_transported_boundary_orbits():
    """The same on corner_refine(T).refined for each seeded type, along
    every orbit of period <= 4.  The families hold orientation-reversing
    codes, whose two flanks swap after every reversing step and make one
    orbit of twice the period."""
    reversing = 0
    for T in TRANSPORT_CORPUS:
        C = corner_refine(T).refined
        W = [o.canonical for o in enumerate_orbits(incidence_matrix(C), 4)]
        stage = corner_refine_along(C, W).stages[0]
        _assert_keeps_walked_orbits(stage)
        starts, steps = stage.order._starts, stage.order.steps
        reversing += sum(sum(step < 0 for step in steps[a:b]) % 2 for a, b in zip(starts, starts[1:]))
    assert reversing >= 40, reversing


@pytest.mark.slow
def test_wp_refine_keeps_transported_boundary_orbits_at_scale(e2):
    """The same on the first pass of wp_refine(E2, 12)."""
    _assert_keeps_walked_orbits(wp_refine(e2, 12).stages[0])


def test_serialize_result_golden(e2):
    result = s_refine(e2, [W12])
    assert serialize_result(result) == (GOLDEN / "srefine_E2_w12.txt").read_text()


def test_serialize_result_pipeline_is_type_only(e2):
    result = corner_refine(e2)
    from geotype import serialize

    assert serialize_result(result) == serialize(result.refined)
