"""The exact affine realization and its agreement with the formula engine."""

from __future__ import annotations

from fractions import Fraction

import pytest

from geotype import (
    BoundaryCodeError,
    DuplicateOrbitError,
    GeoTypeError,
    IntervalRef,
    NonBinaryError,
    PeriodicCode,
    bin_refine,
    enumerate_orbits,
    incidence_matrix,
    interval_less,
    model_svg,
    oracle_s_refine,
    per_s_codes,
    periodic_point,
    realize,
    s_refine,
)
from geotype.oracle import TieError
from geotype.shift import AdmissibilityError

from conftest import (
    binary_mixing_corpus,
    cutting_families,
    make_e0,
    orientation_reversing_bin_types,
)

W12 = PeriodicCode((1, 2))


def test_realize_shapes(e0, e1):
    model0 = realize(e0)
    assert model0.strip_bounds(1, 1) == (0, 1)
    model1 = realize(e1)
    assert model1.strip_bounds(1, 1) == (Fraction(0), Fraction(1, 2))
    assert model1.strip_bounds(1, 2) == (Fraction(1, 2), Fraction(1))


def test_reextraction_roundtrip(e0, e1, e2, e1m):
    for T in (e0, e1, e2, bin_refine(e1m).refined):
        assert realize(T).extract_type() == T
    for T in binary_mixing_corpus(seed=71, count=6):
        assert realize(T).extract_type() == T


def test_periodic_point_examples(e2):
    model = realize(e2)
    assert periodic_point(model, PeriodicCode((1,))).y == 0
    point = periodic_point(model, W12)
    assert point.square == 1 and point.y == Fraction(2, 3)
    companion = periodic_point(model, W12, phase=1)
    assert companion.square == 2 and companion.y == Fraction(1, 3)


def test_periodic_point_matches_iteration(e2):
    """Brute-force iteration of the contracting inverse maps converges to 2/3."""
    model = realize(e2)
    y = 0.1
    for _ in range(60):
        y = ((y / 2) + 1) / 2  # inverse of strip 1 of square 2, then strip 2 of square 1
    assert abs(y - 2 / 3) < 1e-12
    assert periodic_point(model, W12).y == Fraction(2, 3)


def test_periodic_point_longer_cycle(e2):
    # Independent solve: the inverse holonomy of (1,2,2) is y -> (y + 6) / 8.
    model = realize(e2)
    assert periodic_point(model, PeriodicCode((1, 2, 2))).y == Fraction(6, 7)


def test_periodic_point_degenerate_height():
    model = realize(make_e0())
    with pytest.raises(GeoTypeError, match="undetermined"):
        periodic_point(model, PeriodicCode((1,)))


def test_orbit_walk_heights_are_the_phase_fixed_points():
    """Every cut height of oracle_s_refine equals periodic_point at its
    phase, and periodic_point's (x, y) is fixed by the phase's composed
    strip maps, along all non-boundary orbits of period <= 6."""
    types = binary_mixing_corpus(seed=73, count=4) + orientation_reversing_bin_types(79, 3)
    periods: set[int] = set()
    for T in types:
        model = realize(T)
        boundary = {c.orbit() for c in per_s_codes(T)}
        orbits = enumerate_orbits(incidence_matrix(T), 6)
        family = [o.canonical for o in orbits if o not in boundary]
        result = oracle_s_refine(T, family)
        for square, bucket in enumerate(result.cut_heights, start=1):
            for y, t, code in bucket:
                point = periodic_point(model, code, t)
                assert (point.square, point.y) == (square, y)
                x = point.x
                for m in range(t, t + code.period):
                    i = code.symbol(m)
                    step = model.strip_map((i, model.branch(i, code.symbol(m + 1))))
                    x, y = step.apply_x(x), step.apply_y(y)
                assert (x, y) == (point.x, point.y)
                periods.add(code.period)
    assert periods == {1, 2, 3, 4, 5, 6}


def test_oracle_refine_worked_example(e2, e3):
    result = oracle_s_refine(e2, [W12])
    assert result.refined == e3
    assert result.label_map == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_oracle_refine_identity(e2):
    assert oracle_s_refine(e2, []).refined == e2


def test_oracle_equivalence_corpus():
    checked = 0
    for T in binary_mixing_corpus(seed=73, count=6):
        for family in cutting_families(T)[:6]:
            formula = s_refine(T, family)
            geometric = oracle_s_refine(T, family)
            assert formula.refined == geometric.refined
            assert formula.label_map == geometric.label_map
            checked += 1
    assert checked >= 20


def test_order_agreement_with_cut_heights():
    for T in binary_mixing_corpus(seed=79, count=5):
        for family in cutting_families(T)[:4]:
            geometric = oracle_s_refine(T, family)
            for bucket in geometric.cut_heights:
                for a_pos, (ya, ta, wa) in enumerate(bucket):
                    for yb, tb, wb in bucket[a_pos + 1:]:
                        assert ya < yb
                        assert interval_less(T, IntervalRef(ta, wa), IntervalRef(tb, wb))


def test_cut_heights_are_distinct():
    for T in binary_mixing_corpus(seed=83, count=5):
        for family in cutting_families(T)[:4]:
            for bucket in oracle_s_refine(T, family).cut_heights:
                heights = [y for y, _, _ in bucket]
                assert len(set(heights)) == len(heights)


def test_strict_recode_matches_oracle_bands():
    """Band itineraries of non-cut codes from the formula engine equal the
    bands read off the exact cut heights."""
    from geotype import enumerate_orbits, incidence_matrix, per_s_codes
    from geotype.shift import primitive_root

    for T in binary_mixing_corpus(seed=89, count=4):
        boundary = {c.orbit() for c in per_s_codes(T)}
        for family in cutting_families(T)[:3]:
            result = s_refine(T, family)
            geometric = oracle_s_refine(T, family)
            model = realize(T)
            cut_heights = {
                i + 1: sorted(y for y, _, _ in geometric.cut_heights[i])
                for i in range(T.n)
            }
            family_orbits = {w.orbit() for w in family}
            others = [
                o.canonical
                for o in enumerate_orbits(incidence_matrix(T), 3)
                if o not in family_orbits and o not in boundary
            ]
            for v in others[:3]:
                (code,) = result.recode(v)
                expected = []
                for t in range(v.period):
                    y = periodic_point(model, v, t).y
                    i = v.symbol(t)
                    s = 1 + sum(1 for cy in cut_heights[i] if cy < y)
                    expected.append(result.r_of(i, s))
                assert code.word == primitive_root(tuple(expected))


def test_oracle_validation_mirrors_engine(e1, e2, e3):
    """The engine and the oracle reject a bad family with one error."""
    symbol_above_n = r"symbol out of range 1\.\.2 in word \(3, 1\)"
    for T, family, error, message in (
        (e2, [PeriodicCode((1,))], BoundaryCodeError, "s-boundary code 1 "),
        (e2, [W12, PeriodicCode((2, 1))], DuplicateOrbitError, "duplicate orbit 1 2 "),
        (e3, [PeriodicCode((1, 4))], AdmissibilityError, "code 1 4 is not admissible"),
        (e2, [PeriodicCode((3, 1))], AdmissibilityError, symbol_above_n),
        (e1, [], NonBinaryError, "incidence matrix is not binary"),
    ):
        with pytest.raises(error, match=message) as engine:
            s_refine(T, family)
        with pytest.raises(error) as oracle:
            oracle_s_refine(T, family)
        assert type(oracle.value) is type(engine.value)
        assert str(oracle.value) == str(engine.value)
    for run in (
        lambda code: periodic_point(realize(e2), code, 1),
        lambda code: model_svg(e2, [code]),
    ):
        with pytest.raises(AdmissibilityError, match=symbol_above_n):
            run(PeriodicCode((3, 1)))
    assert TieError.__mro__[1] is GeoTypeError


def test_svg_emission(e2):
    svg = model_svg(e2, [W12])
    assert svg == model_svg(e2, [W12])
    assert svg.startswith("<svg")
    assert "(0,1.2)" in svg and "(1,1.2)" in svg
    assert svg.count("<rect") == 2
