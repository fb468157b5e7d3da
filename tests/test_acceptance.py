"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All checks are exact (integer / rational equality); nothing is tolerance-based.
"""

from __future__ import annotations

import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from geotype import (
    alpha,
    bin_refine,
    boundary_sets,
    corner_refine,
    count_periodic_points,
    enumerate_orbits,
    has_corner_property,
    incidence_matrix,
    invert,
    is_binary,
    oracle_s_refine,
    per_u_codes,
    s_refine,
    u_refine,
    validate,
    wp_refine,
)
from geotype.boundary import (
    s_boundary_positive_code,
    u_boundary_negative_code,
)

from conftest import (
    binary_mixing_corpus,
    cutting_families,
    make_e1,
    make_e2,
    make_e3,
    random_corpus,
    su_labels,
)
from reference import canonical_tail, count

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def random_types():
    return random_corpus(seed=1001, count=200, max_n=5, max_hv=4)


@pytest.fixture(scope="module")
def mixing_types():
    return binary_mixing_corpus(seed=2002, count=10, max_n=4)


@pytest.fixture(scope="module")
def refinement_instances(mixing_types):
    """(T, W, s_refine result) triples: the shared refinement corpus."""
    instances = []
    for T in mixing_types:
        for family in cutting_families(T, max_period=4, max_total=8):
            instances.append((T, family, s_refine(T, family)))
    assert len(instances) >= 100
    return instances


def test_criterion_1_binary_refinement_theorem(random_types):
    with criterion(1, "binary refinement theorem"):
        assert len(random_types) >= 200
        for T in random_types:
            refined = bin_refine(T).refined
            assert refined.n == alpha(T)
            assert is_binary(incidence_matrix(refined))


def test_criterion_2_worked_example_golden():
    with criterion(2, "worked-example golden"):
        assert bin_refine(make_e1()).refined == make_e2()
        result = s_refine(make_e2(), [[1, 2]])
        assert result.refined == make_e3()
        assert result.label_map == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_criterion_3_oracle_equivalence(refinement_instances):
    with criterion(3, "oracle equivalence"):
        for T, family, formula in refinement_instances:
            geometric = oracle_s_refine(T, family)
            assert formula.refined == geometric.refined
            assert formula.label_map == geometric.label_map


def test_criterion_4_count_identities(refinement_instances):
    with criterion(4, "count identities"):
        for T, family, result in refinement_instances:
            order = result.order
            assert result.refined.n == sum(count(order, i) + 1 for i in range(1, T.n + 1))
            for r, (i, s) in enumerate(result.label_map, start=1):
                assert result.refined.v[r - 1] == T.v[i - 1]
            assert sum(result.refined.h) == sum(result.refined.v)
            assert validate(result.refined).ok


def test_criterion_5_generating_function_bounds(random_types, mixing_types):
    with criterion(5, "generating-function bounds"):
        for T in random_types:
            if not validate(T).ok:
                continue
            for label in su_labels(T):
                assert len(s_boundary_positive_code(T, label).trace) <= 2 * T.n
                assert len(u_boundary_negative_code(T, label).trace) <= 2 * T.n
        for T in mixing_types:
            if T.n < 2:
                continue
            tails = {canonical_tail(s_boundary_positive_code(T, lab)) for lab in su_labels(T)}
            assert len(tails) == 2 * T.n


def test_criterion_6_corner_postcondition(mixing_types):
    with criterion(6, "corner post-condition"):
        assert not has_corner_property(make_e3())
        assert has_corner_property(corner_refine(make_e3()).refined)
        for T in mixing_types:
            assert has_corner_property(corner_refine(T).refined)


def test_criterion_7_wp_semantics():
    """Every orbit of period <= P recodes to codes that are both s- and
    u-boundary after ``wp_refine(E2, P)``, for P = 1..10."""
    with criterion(7, "bounded-period refinement semantics"):
        E2 = make_e2()
        A = incidence_matrix(E2)
        for P in range(1, 11):
            result = wp_refine(E2, P)
            assert has_corner_property(result.refined)
            b_codes = boundary_sets(result.refined).b_codes
            for orbit in enumerate_orbits(A, P):
                recoded = result.recode(orbit.canonical)
                assert recoded
                assert recoded <= b_codes


def test_criterion_8_duality(mixing_types):
    with criterion(8, "inversion duality"):
        for T in mixing_types:
            assert invert(invert(T)) == T
            u_boundary = {c.orbit() for c in per_u_codes(T)}
            for family in cutting_families(T, max_period=3)[:4]:
                family = [w for w in family if w.orbit() not in u_boundary]
                result = u_refine(T, family)
                mirror = s_refine(invert(T), [w.reversed_pointed() for w in family])
                assert invert(result.refined) == mirror.refined


def test_criterion_9_necklace_consistency(mixing_types):
    with criterion(9, "necklace consistency"):
        for T in mixing_types:
            A = incidence_matrix(T)
            orbits = enumerate_orbits(A, 6)
            for P in range(1, 7):
                total = sum(o.period for o in orbits if P % o.period == 0)
                assert total == count_periodic_points(A, P)


def test_criterion_10_cli_determinism():
    with criterion(10, "CLI determinism"):
        def run(*argv: str) -> bytes:
            proc = subprocess.run(
                [sys.executable, "-m", "geotype", *argv],
                capture_output=True,
                check=True,
            )
            return proc.stdout

        e1 = str(GOLDEN / "E1.gt")
        e2 = str(GOLDEN / "E2.gt")
        w12 = str(GOLDEN / "W12.codes")
        invocations = (
            ("bin", e1),
            ("codes", e2),
            ("orbits", e2, "--max-period", "3"),
            ("srefine", e2, "--codes", w12),
            ("wp", e2, "--max-period", "2"),
            ("render", e2, "--format", "dot"),
            ("render", e2, "--format", "svg", "--codes", w12),
        )
        for argv in invocations:
            assert run(*argv) == run(*argv)
