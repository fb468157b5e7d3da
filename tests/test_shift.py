"""Incidence matrices, mixing, admissibility, and orbit enumeration."""

from __future__ import annotations

import pytest

from geotype import (
    CodeOrbit,
    EventuallyPeriodicCode,
    IncidenceMatrix,
    NonBinaryError,
    PeriodicCode,
    count_periodic_points,
    enumerate_orbits,
    incidence_matrix,
    invert,
    is_admissible_cycle,
    is_binary,
    is_mixing,
)
from geotype.shift import (
    AdmissibilityError,
    is_admissible_eventually_periodic,
    min_rotation,
    parse_codes,
    primitive_root,
    serialize_codes,
)
from geotype import ParseError

from conftest import binary_mixing_corpus, random_corpus


def matrix(rows):
    return IncidenceMatrix(tuple(tuple(r) for r in rows))


def test_incidence_examples(e0, e1, e2):
    assert incidence_matrix(e1).rows == ((2,),)
    assert incidence_matrix(e2).rows == ((1, 1), (1, 1))
    assert incidence_matrix(e0).rows == ((1,),)


def test_incidence_row_col_sums_match_type():
    for T in random_corpus(seed=5, count=30):
        A = incidence_matrix(T)
        assert tuple(sum(row) for row in A.rows) == T.h
        assert tuple(sum(col) for col in zip(*A.rows)) == T.v


def test_incidence_of_inverse_is_transpose():
    for T in random_corpus(seed=7, count=30):
        assert incidence_matrix(invert(T)).rows == tuple(zip(*incidence_matrix(T).rows))


def test_is_binary_examples(e1, e2):
    assert not is_binary(incidence_matrix(e1))
    assert is_binary(incidence_matrix(e2))
    assert is_binary(matrix([[1]]))


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[1, 1], [1, 1]], True),
        ([[0, 1], [1, 1]], True),
        ([[1, 0], [0, 1]], False),
        ([[1]], True),
        ([[0]], False),
        ([[0, 1], [1, 0]], False),  # irreducible but period 2
        ([[2, 0], [0, 1]], False),
    ],
)
def test_is_mixing(rows, expected):
    assert is_mixing(matrix(rows)) is expected


def test_is_mixing_wielandt_extremal():
    # 1->2->3->1 plus the chord 3->2: primitive with index exactly n^2-2n+2 = 5
    A = matrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert is_mixing(A)
    from geotype.shift import matrix_power

    p4 = matrix_power(A, 4)
    assert any(p4[i][k] == 0 for i in range(3) for k in range(3))
    p5 = matrix_power(A, 5)
    assert all(p5[i][k] > 0 for i in range(3) for k in range(3))


def test_is_admissible_cycle(e2):
    A = incidence_matrix(e2)
    assert is_admissible_cycle(A, (1, 2))
    assert not is_admissible_cycle(matrix([[0, 1], [1, 1]]), (1, 1))
    assert is_admissible_cycle(matrix([[0, 1], [1, 1]]), (2,))
    with pytest.raises(AdmissibilityError):
        is_admissible_cycle(A, (1, 3))


def test_enumerate_orbits_examples(e2):
    A = incidence_matrix(e2)
    assert [o.canonical.word for o in enumerate_orbits(A, 1)] == [(1,), (2,)]
    assert [o.canonical.word for o in enumerate_orbits(A, 2)] == [(1,), (2,), (1, 2)]
    B = matrix([[0, 1], [1, 1]])
    assert [o.canonical.word for o in enumerate_orbits(B, 2)] == [(2,), (1, 2)]


def test_enumerate_orbits_beyond_the_recursion_limit(e0):
    """The search is as deep as the period bound, here above the recursion limit."""
    orbits = enumerate_orbits(incidence_matrix(e0), 1500)
    assert [o.canonical.word for o in orbits] == [(1,)]


def test_enumerate_orbits_requires_binary(e1):
    with pytest.raises(NonBinaryError):
        enumerate_orbits(incidence_matrix(e1), 2)


def test_enumerate_orbits_words_are_canonical_and_sorted():
    for T in binary_mixing_corpus(seed=3, count=6):
        A = incidence_matrix(T)
        orbits = enumerate_orbits(A, 5)
        keys = [o.sort_key() for o in orbits]
        assert keys == sorted(keys)
        for o in orbits:
            assert o.canonical.word == min_rotation(o.canonical.word)
            assert is_admissible_cycle(A, o.canonical.word)


def test_count_periodic_points_examples(e2):
    A = incidence_matrix(e2)
    assert count_periodic_points(A, 1) == 2
    assert count_periodic_points(A, 2) == 4
    assert count_periodic_points(matrix([[1]]), 7) == 1


def test_necklace_consistency_exhaustive():
    for T in binary_mixing_corpus(seed=9, count=8):
        A = incidence_matrix(T)
        orbits = enumerate_orbits(A, 8)
        for P in range(1, 9):
            total = sum(o.period for o in orbits if P % o.period == 0)
            assert total == count_periodic_points(A, P)


# -- codes --------------------------------------------------------------------------


def test_periodic_code_rejects_non_primitive():
    with pytest.raises(ValueError, match="not primitive"):
        PeriodicCode((1, 2, 1, 2))
    with pytest.raises(ValueError):
        PeriodicCode(())


def test_rotation_preserves_orbit():
    code = PeriodicCode((2, 1, 3))
    orbits = {code.rotate(t).orbit() for t in range(code.period)}
    assert orbits == {CodeOrbit.from_word((2, 1, 3))}
    assert code.rotate(0) == code
    assert code.rotate(1).word == (1, 3, 2)


def test_reversed_pointed_is_involution():
    code = PeriodicCode((1, 2, 3, 2))
    assert code.reversed_pointed().word == (1, 2, 3, 2)
    code2 = PeriodicCode((1, 2, 3))
    assert code2.reversed_pointed().word == (1, 3, 2)
    assert code2.reversed_pointed().reversed_pointed() == code2


def test_primitive_root():
    assert primitive_root((1, 2, 1, 2)) == (1, 2)
    assert primitive_root((1, 1, 1)) == (1,)
    assert primitive_root((1, 2, 3)) == (1, 2, 3)


def test_eventually_periodic_admissibility(e2):
    A = incidence_matrix(e2)
    corner = EventuallyPeriodicCode((1,), (2,), (2,))
    assert is_admissible_eventually_periodic(A, corner)
    B = matrix([[0, 1], [1, 1]])
    assert not is_admissible_eventually_periodic(B, EventuallyPeriodicCode((1,), (), (1,)))
    assert is_admissible_eventually_periodic(B, EventuallyPeriodicCode((1, 2), (), (2,)))


def test_code_file_roundtrip():
    codes = (PeriodicCode((1, 2)), PeriodicCode((3,)))
    text = serialize_codes(codes)
    assert text == "CODE 1 2\nCODE 3\n"
    assert parse_codes("# family\n\n" + text) == codes


@pytest.mark.parametrize(
    "text",
    ["ORBIT 1 2\n", "CODE\n", "CODE 1 x\n", "CODE 1 2 1 2\n"],
)
def test_code_file_errors(text):
    with pytest.raises(ParseError):
        parse_codes(text)
