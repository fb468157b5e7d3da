"""Generating functions, boundary code sets, corner property, classification."""

from __future__ import annotations

import pytest

import geotype
from geotype import (
    CodeOrbit,
    EventuallyPeriodicCode,
    GeometricType,
    PeriodicCode,
    SULabel,
    bin_refine,
    boundary_orbits,
    boundary_sets,
    classify_code,
    gamma_step,
    has_corner_property,
    incidence_matrix,
    invert,
    is_admissible_cycle,
    per_s_codes,
    per_u_codes,
    s_boundary_positive_code,
    theta,
    u_boundary_negative_code,
    upsilon_step,
    wp_refine,
)
from geotype.boundary import boundary_report, su_labels
from geotype.shift import AdmissibilityError

from conftest import binary_mixing_corpus, make_e0, make_e2, orientation_reversing_bin_types


def words(codes):
    return sorted(c.word for c in codes)


def test_theta_examples(e0, e2):
    assert theta(e2, SULabel(1, -1)) == (1, 1)
    assert theta(e2, SULabel(1, +1)) == (1, 2)
    assert theta(e0, SULabel(1, +1)) == (1, 1)


def test_gamma_step_examples(e0, e2):
    assert gamma_step(e2, SULabel(1, -1)) == SULabel(1, -1)
    assert gamma_step(e2, SULabel(1, +1)) == SULabel(2, +1)
    assert gamma_step(e0, SULabel(1, +1)) == SULabel(1, +1)


def test_upsilon_step_examples(e0, e2):
    assert upsilon_step(e2, SULabel(1, -1)) == SULabel(1, -1)
    assert upsilon_step(e2, SULabel(1, +1)) == SULabel(2, +1)
    assert upsilon_step(e0, SULabel(1, 1)) == SULabel(1, 1)
    assert upsilon_step(e0, SULabel(1, -1)) == SULabel(1, -1)


def test_upsilon_matches_direct_formula():
    """Independent reimplementation of the unstable step from the reversed map."""

    def direct(T, label):
        k, eps = label
        l = 1 if eps == -1 else T.v[k - 1]
        for src in T.h_labels():
            kk, ll, e = T.phi(src)
            if (kk, ll) == (k, l):
                return SULabel(src.i, eps * e)
        raise AssertionError("rho is a bijection, a preimage must exist")

    for T in binary_mixing_corpus(seed=17, count=8):
        for label in su_labels(T):
            assert upsilon_step(T, label) == direct(T, label)


def test_boundary_summary_examples(e0, e2):
    s = s_boundary_positive_code(e2, SULabel(1, +1))
    assert (s.preperiod, s.cycle) == ((1,), (2,))
    s = s_boundary_positive_code(e2, SULabel(2, -1))
    assert (s.preperiod, s.cycle) == ((2,), (1,))
    s = s_boundary_positive_code(e0, SULabel(1, +1))
    assert (s.preperiod, s.cycle) == ((), (1,))


def test_orbits_enter_cycles_within_2n():
    for T in binary_mixing_corpus(seed=21, count=10) + [make_e0()]:
        for label in su_labels(T):
            for summary in (
                s_boundary_positive_code(T, label),
                u_boundary_negative_code(T, label),
            ):
                assert len(summary.trace) <= 2 * T.n
                assert len(summary.preperiod) + len(summary.cycle) <= 2 * T.n


def test_boundary_codes_injective_when_mixing():
    for T in binary_mixing_corpus(seed=25, count=10):
        assert T.n >= 2
        tails = [
            s_boundary_positive_code(T, label).canonical_tail()
            for label in su_labels(T)
        ]
        assert len(set(tails)) == 2 * T.n
        tails_u = [
            u_boundary_negative_code(T, label).canonical_tail()
            for label in su_labels(T)
        ]
        assert len(set(tails_u)) == 2 * T.n


def test_injectivity_fails_for_degenerate_singleton(e0):
    tails = {
        s_boundary_positive_code(e0, label).canonical_tail() for label in su_labels(e0)
    }
    assert len(tails) == 1


def test_per_codes_examples(e2, e3):
    assert words(per_s_codes(e2)) == [(1,), (2,)]
    assert words(per_u_codes(e2)) == [(1,), (2,)]
    assert words(per_s_codes(e3)) == [(1,), (1, 3), (2, 4), (3, 1), (4,), (4, 2)]
    assert words(per_u_codes(e3)) == [(1,), (4,)]
    assert words(o.canonical for o in boundary_orbits(e3)) == [(1,), (1, 3), (2, 4), (4,)]
    assert words(o.canonical for o in boundary_orbits(e3, unstable=True)) == [(1,), (4,)]
    for T in binary_mixing_corpus(seed=29, count=8) + orientation_reversing_bin_types(79, 6):
        assert boundary_orbits(T) == {c.orbit() for c in per_s_codes(T)}
        assert boundary_orbits(T, unstable=True) == {c.orbit() for c in per_u_codes(T)}


def test_per_s_codes_are_admissible():
    for T in binary_mixing_corpus(seed=29, count=8):
        A = incidence_matrix(T)
        for code in per_s_codes(T) | per_u_codes(T):
            assert is_admissible_cycle(A, code.word)


def test_per_u_agrees_with_inverse_route():
    for T in binary_mixing_corpus(seed=31, count=8) + orientation_reversing_bin_types(83, 6):
        via_inverse = {
            c.reversed_pointed() for c in per_s_codes(invert(T))
        }
        assert per_u_codes(T) == via_inverse
        reversed_orbits = {CodeOrbit.from_word(o.canonical.word[::-1]) for o in boundary_orbits(invert(T))}
        assert boundary_orbits(T, unstable=True) == reversed_orbits


def test_boundary_codes_take_linear_gamma_steps(monkeypatch):
    """Each side's codes come from one table of gamma on the 2n labels, so a
    derivation makes O(n) gamma steps, not one walk per label."""
    refined = wp_refine(make_e2(), 6).refined
    T = GeometricType(refined.h, refined.v, refined.rho, refined.eps)  # no cached facts
    assert T.n == 314
    steps: list[SULabel] = []
    real_step = geotype.boundary.gamma_step

    def counting_step(T, label):
        steps.append(label)
        return real_step(T, label)

    monkeypatch.setattr(geotype.boundary, "gamma_step", counting_step)
    for fn, bound in ((per_s_codes, 2 * T.n), (per_u_codes, 2 * T.n), (boundary_report, 4 * T.n)):
        steps.clear()
        fn(T)
        assert 0 < len(steps) <= bound, (fn.__name__, len(steps))


def test_boundary_sets_examples(e0, e2, e3):
    sets = boundary_sets(e2)
    assert words(sets.s_codes) == words(sets.u_codes) == [(1,), (2,)]
    assert sets.b_codes == sets.c_codes
    sets3 = boundary_sets(e3)
    assert words(sets3.b_codes) == [(1,), (1, 3), (2, 4), (3, 1), (4,), (4, 2)]
    assert words(sets3.c_codes) == [(1,), (4,)]
    sets0 = boundary_sets(e0)
    assert words(sets0.b_codes) == [(1,)]


def test_corner_property_examples(e0, e2, e3):
    assert has_corner_property(e2)
    assert not has_corner_property(e3)
    assert has_corner_property(e0)


def test_classify_examples(e2):
    periodic_one = EventuallyPeriodicCode((1,), (), (1,))
    assert classify_code(e2, periodic_one) == "corner-leaf"
    interior = EventuallyPeriodicCode((1, 2), (), (1, 2))
    assert classify_code(e2, interior) == "interior"
    corner = EventuallyPeriodicCode((1,), (2,), (2,))
    assert classify_code(e2, corner) == "corner-leaf"


def test_classify_one_sided_leaves(e2):
    s_only = EventuallyPeriodicCode((1, 2), (), (2,))
    assert classify_code(e2, s_only) == "S-leaf"
    u_only = EventuallyPeriodicCode((1,), (), (1, 2))
    assert classify_code(e2, u_only) == "U-leaf"


def test_classify_rejects_inadmissible():
    T = bin_refine(make_e0()).refined
    with pytest.raises(AdmissibilityError):
        classify_code(T, EventuallyPeriodicCode((1,), (2,), (1,)))


def test_corner_codes_classify_as_corner_leaves():
    for T in binary_mixing_corpus(seed=35, count=6):
        for code in boundary_sets(T).c_codes:
            embedded = EventuallyPeriodicCode(code.word, (), code.word)
            assert classify_code(T, embedded) == "corner-leaf"


def test_boundary_report_deterministic(e2):
    assert boundary_report(e2) == boundary_report(e2)
    assert boundary_report(e2).endswith("CORNER true\n")
