"""Binary refinement, the interval order engine, and the refinement pipelines."""

from __future__ import annotations

from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings

from geotype import (
    BoundaryCodeError,
    DuplicateOrbitError,
    GeoTypeError,
    IntervalRef,
    PeriodBoundError,
    PeriodicCode,
    ShiftEqualError,
    alpha,
    bin_refine,
    boundary_sets,
    build_order,
    corner_refine,
    corner_refine_along,
    enumerate_orbits,
    has_corner_property,
    incidence_matrix,
    interchange_delta,
    interval_less,
    invert,
    is_binary,
    j_index,
    mismatch_M,
    per_s_codes,
    per_u_codes,
    s_refine,
    serialize_result,
    u_refine,
    validate,
    wp_refine,
)
from geotype.shift import AdmissibilityError

from conftest import (
    binary_mixing_corpus,
    cutting_families,
    make_e3,
    orientation_reversing_bin_types,
    valid_types,
)

GOLDEN = Path(__file__).parent / "golden"

W12 = PeriodicCode((1, 2))


def test_bin_refine_worked_example(e1, e2):
    result = bin_refine(e1)
    assert result.refined == e2
    assert result.label_map == ((1, 1), (1, 2))
    assert incidence_matrix(result.refined).rows == ((1, 1), (1, 1))


def test_bin_refine_fixes_singleton(e0):
    assert bin_refine(e0).refined == e0


def test_bin_refine_orientation_reversing_branch(e1m):
    refined = bin_refine(e1m).refined
    assert refined.phi((2, 1)) == (2, 2, -1)
    assert refined.phi((2, 2)) == (1, 2, -1)
    assert refined.phi((1, 1)) == (1, 1, 1)
    assert refined.phi((1, 2)) == (2, 1, 1)


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
                refs = table.refs(i)
                for a, b in permutations(refs, 2):
                    assert interval_less(T, a, b) != interval_less(T, b, a)
                for a, b, c in permutations(refs, 3):
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
        for i in range(1, T.n + 1):
            for a, b in combinations(table.refs(i), 2):
                less, delta = _pairwise_less(T, a, b)
                assert less, (T, a, b)  # a precedes b in the table
                period_pairs.add(tuple(sorted((a.code.period, b.code.period))))
                deltas.add(delta)
    assert (1, 6) in period_pairs  # the longest Fine-Wilf length for P = 6
    assert deltas == {1, -1}  # both orientations before the mismatch


def test_build_order_examples(e2):
    table = build_order(e2, [W12])
    assert table.count(1) == 1 and table.count(2) == 1
    assert table.position(IntervalRef(0, W12)) == 1
    assert table.position(IntervalRef(1, W12)) == 1
    empty = build_order(e2, [])
    assert empty.count(1) == 0 and empty.count(2) == 0


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


def test_s_refine_empty_family_is_identity(e2):
    result = s_refine(e2, [])
    assert result.refined == e2
    assert result.label_map == ((1, 1), (2, 1))


def test_s_refine_boundary_code_errors(e2):
    with pytest.raises(BoundaryCodeError):
        s_refine(e2, [PeriodicCode((1,))])


def test_s_refine_recoded_cut_codes_are_boundary(e2):
    result = s_refine(e2, [W12])
    recoded = result.recode(W12)
    assert {c.word for c in recoded} == {(1, 3), (2, 4)}
    assert recoded <= per_s_codes(result.refined)


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


def test_s_refine_count_identities():
    for T in binary_mixing_corpus(seed=43, count=6):
        for family in cutting_families(T)[:5]:
            result = s_refine(T, family)
            order = result.order
            expected_n = sum(order.count(i) + 1 for i in range(1, T.n + 1))
            assert result.refined.n == expected_n
            for r, (i, s) in enumerate(result.label_map, start=1):
                assert result.refined.v[r - 1] == T.v[i - 1]
            assert sum(result.refined.h) == sum(result.refined.v)
            assert validate(result.refined).ok
            assert is_binary(incidence_matrix(result.refined))


def test_s_refine_recoding_property():
    for T in binary_mixing_corpus(seed=47, count=5):
        for family in cutting_families(T)[:3]:
            result = s_refine(T, family)
            boundary = per_s_codes(result.refined)
            for code in family:
                assert result.recode(code) <= boundary


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
    assert u_refine(e2, []).refined == e2


def test_u_refine_boundary_code_errors(e2):
    with pytest.raises(BoundaryCodeError, match="u-boundary code"):
        u_refine(e2, [PeriodicCode((2,))])


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
    assert corner_refine(e2).refined == e2


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


def test_wp_refine_recodings_are_boundary(e2):
    A = incidence_matrix(e2)
    for P in (1, 2, 3):
        result = wp_refine(e2, P)
        b_codes = boundary_sets(result.refined).b_codes
        for orbit in enumerate_orbits(A, P):
            recoded = result.recode(orbit.canonical)
            assert recoded
            assert recoded <= b_codes


def test_serialize_result_golden(e2):
    result = s_refine(e2, [W12])
    assert serialize_result(result) == (GOLDEN / "srefine_E2_w12.txt").read_text()


def test_serialize_result_pipeline_is_type_only(e2):
    result = corner_refine(e2)
    from geotype import serialize

    assert serialize_result(result) == serialize(result.refined)
