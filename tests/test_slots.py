"""Integer slot storage against the label-by-label references.

A type stores each strip's target as its vertical slot, inverts by the
inverse permutation and keys its branch table by one integer per step.
These tests hold the inverse and the branch table to the references in
``tests/reference.py`` on the seeded corpora, on a large stable and
unstable refinement and on every stage of the bounded-period pipeline; they
check that the ``rho`` view of every way of making a type is a tuple of
``VLabel``s and that its public-constructor twin agrees in ``==``, ``hash``
and ``repr``; and they
check that a symbol past n, which can alias a valid branch-table key, is
rejected as out of range on every path that takes codes.
"""

from __future__ import annotations

import pytest

from geotype import (
    EventuallyPeriodicCode,
    GeometricType,
    PeriodicCode,
    VLabel,
    bin_refine,
    boundary_orbits,
    build_order,
    classify_code,
    corner_refine_along,
    enumerate_orbits,
    incidence_matrix,
    invert,
    parse,
    s_refine,
    serialize,
    u_refine,
    wp_refine,
)
from geotype.core import _branch_keys
from geotype.oracle import oracle_s_refine
from geotype.shift import AdmissibilityError, binary_branches, is_binary

from conftest import (
    binary_mixing_corpus,
    make_e1m,
    make_e2,
    make_e3,
    orientation_reversing_bin_types,
    random_corpus,
)
from reference import branches_by_labels, inverse_by_labels

W12 = PeriodicCode((1, 2))


def _check_view(T: GeometricType) -> None:
    """rho reads as a tuple of ``VLabel``s, and the type built from plain
    pairs and lists through the public constructor is the same value."""
    assert type(T.rho) is tuple and all(type(x) is VLabel for x in T.rho)
    twin = GeometricType(list(T.h), list(T.v), [tuple(x) for x in T.rho], list(T.eps))
    assert twin == T and hash(twin) == hash(T) and repr(twin) == repr(T)
    assert twin.rho == T.rho and parse(serialize(T)) == T


def _check_against_references(T: GeometricType) -> None:
    """The view, the inverse and, for a binary type, the branch table entry
    by entry: the reference entry (i, k): (j, e) is the library's e * j
    under the key of the step (i, k)."""
    _check_view(T)
    inverse = invert(T)
    assert inverse == inverse_by_labels(T)
    _check_view(inverse)
    if not is_binary(incidence_matrix(T)):
        return
    expected = branches_by_labels(T)
    table = binary_branches(T)
    keys = _branch_keys(T.n, [i for i, _ in expected], [k for _, k in expected])
    assert len(table) == len(expected)
    assert [table[key] for key in keys] == [e * j for j, e in expected.values()]


def _non_boundary(T: GeometricType, P: int, *, unstable: bool = False) -> list[PeriodicCode]:
    boundary = boundary_orbits(T, unstable=unstable)
    return [o.canonical for o in enumerate_orbits(incidence_matrix(T), P) if o not in boundary]


def test_seeded_corpora_match_the_references():
    types = random_corpus(seed=29, count=40) + random_corpus(seed=31, count=10, max_n=8, max_hv=6)
    types += binary_mixing_corpus(seed=37, count=8) + orientation_reversing_bin_types(41, 6)
    for T in types:
        _check_against_references(T)


def test_large_refinements_match_the_references():
    """bin(E1m) cut along every non-boundary orbit of period <= 10 on each
    side; the stable result has n = 1967."""
    T = bin_refine(make_e1m()).refined
    s_result = s_refine(T, _non_boundary(T, 10))
    u_result = u_refine(T, _non_boundary(T, 10, unstable=True))
    assert s_result.refined.n == 1967
    for refined in (s_result.refined, u_result.refined, u_result.stages[0].refined):
        _check_against_references(refined)


def test_every_pipeline_stage_matches_the_references():
    """Every type of wp_refine(E2, P), P = 2..8: each stage's source and
    refined type, and the inverse-side run inside each u-stage."""
    for P in range(2, 9):
        result = wp_refine(make_e2(), P)
        seen: dict[int, GeometricType] = {}
        for stage in result.stages:
            for inner in (stage,) + stage.stages:
                seen.update({id(T): T for T in (inner.source, inner.refined)})
        for T in seen.values():
            _check_against_references(T)


def test_every_construction_gives_a_vlabel_view_and_an_equal_twin():
    """parse, build, bin_refine, s_refine, u_refine, invert, the pipeline
    stages and the oracle's refined type, which is built from the oracle's
    own slots and equals the engine's."""
    e2, e3 = make_e2(), make_e3()
    T = bin_refine(make_e1m()).refined
    family = _non_boundary(T, 6)
    engine = s_refine(T, family)
    oracle = oracle_s_refine(T, family).refined
    assert oracle == engine.refined and hash(oracle) == hash(engine.refined)
    assert repr(oracle) == repr(engine.refined)
    built = [
        parse(serialize(e3)),
        e2,
        T,
        engine.refined,
        u_refine(T, _non_boundary(T, 6, unstable=True)).refined,
        invert(e3),
        oracle,
    ]
    built += [stage.refined for stage in wp_refine(e2, 5).stages]
    for X in built:
        _check_view(X)


# -- a symbol past n is out of range, not an aliased key -------------------------

# On E2 (n = 2) the step (1, 4) has the key of the valid step (2, 1).
ALIASED = PeriodicCode((1, 4))


def test_an_aliasing_symbol_is_out_of_range_on_every_path():
    e2 = make_e2()
    assert list(_branch_keys(2, [1, 2], [4, 1])) == [7, 7]
    calls = [
        lambda: s_refine(e2, [ALIASED]),
        lambda: u_refine(e2, [ALIASED]),
        lambda: build_order(e2, [ALIASED]),
        lambda: s_refine(e2, [W12]).recode(ALIASED),
        lambda: u_refine(e2, [W12]).recode(ALIASED),
        lambda: wp_refine(e2, 3).recode(ALIASED),
        lambda: classify_code(e2, EventuallyPeriodicCode((1, 4), (), (1, 4))),
        lambda: classify_code(e2, EventuallyPeriodicCode((1,), (), (1, 4))),
        lambda: oracle_s_refine(e2, [ALIASED]),
        lambda: corner_refine_along(e2, [ALIASED]),
    ]
    for call in calls:
        with pytest.raises(AdmissibilityError, match="symbol out of range 1..2"):
            call()
