"""Incidence matrices, mixing, admissibility, and orbit enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotype import (
    CodeOrbit,
    EventuallyPeriodicCode,
    GeometricType,
    IncidenceMatrix,
    NonBinaryError,
    PeriodicCode,
    bin_refine,
    classify_code,
    count_periodic_points,
    enumerate_orbits,
    incidence_matrix,
    invert,
    is_admissible_cycle,
    is_binary,
    is_mixing,
    per_s_codes,
    s_refine,
    wp_refine,
)
import geotype.shift
from geotype.shift import (
    AdmissibilityError,
    min_rotation,
    parse_codes,
    primitive_root,
    serialize_codes,
)
from geotype import ParseError

from conftest import (
    binary_mixing_corpus,
    make_e0,
    make_e1,
    make_e1m,
    make_e2,
    make_e3,
    orientation_reversing_bin_types,
    random_corpus,
)
from reference import dense_rows, lyndon_scan_orbits, matrix_power, trace_power, wielandt_is_mixing


def matrix(rows):
    return IncidenceMatrix(tuple({k: a for k, a in enumerate(r, start=1) if a} for r in rows))


def test_incidence_examples(e0, e1, e2):
    assert dense_rows(incidence_matrix(e1)) == ((2,),)
    assert dense_rows(incidence_matrix(e2)) == ((1, 1), (1, 1))
    assert dense_rows(incidence_matrix(e0)) == ((1,),)


def test_incidence_row_col_sums_match_type():
    for T in random_corpus(seed=5, count=30):
        A = incidence_matrix(T)
        assert tuple(sum(row) for row in dense_rows(A)) == T.h
        assert tuple(sum(col) for col in zip(*dense_rows(A))) == T.v


def test_incidence_of_inverse_is_transpose():
    for T in random_corpus(seed=7, count=30):
        assert dense_rows(incidence_matrix(invert(T))) == tuple(
            zip(*dense_rows(incidence_matrix(T)))
        )


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
    p4 = matrix_power(A, 4)
    assert any(p4[i][k] == 0 for i in range(3) for k in range(3))
    p5 = matrix_power(A, 5)
    assert all(p5[i][k] > 0 for i in range(3) for k in range(3))


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[1, 1], [0, 1]], False),  # forward from 1 reaches 2, backward does not
        ([[1, 0], [1, 1]], False),  # backward from 1 reaches 2, forward does not
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], False),  # strongly connected, period 3
        ([[0]], False),  # no edge, so no period
        ([[2]], True),
    ],
)
def test_is_mixing_hand_cases(rows, expected):
    """Each non-mixing case fails exactly one condition: forward reach,
    backward reach or period 1; ``[[2]]`` is the mixing n = 1 case."""
    assert is_mixing(matrix(rows)) is expected
    assert wielandt_is_mixing(matrix(rows)) is expected


def _small_corpus_types():
    named = [make_e0(), make_e1(), make_e1m(), make_e2(), make_e3()]
    types = named + random_corpus(seed=11, count=80, max_n=5, max_hv=4)
    types += binary_mixing_corpus(seed=12, count=8) + orientation_reversing_bin_types(13, 6)
    types += [bin_refine(T).refined for T in random_corpus(seed=14, count=40, max_n=5, max_hv=3)]
    return [T for T in types if T.n <= 12]


def test_is_mixing_agrees_with_the_wielandt_scan():
    verdicts = set()
    for T in _small_corpus_types():
        A = incidence_matrix(T)
        verdicts.add(is_mixing(A))
        assert is_mixing(A) is wielandt_is_mixing(A), T
    assert verdicts == {True, False}


def test_count_periodic_points_agrees_with_the_dense_trace():
    types = [make_e1()] + [
        T for T in random_corpus(seed=15, count=40) if not is_binary(incidence_matrix(T))
    ]
    assert len(types) > 10
    for T in types:
        A = incidence_matrix(T)
        for P in range(1, 9):
            assert count_periodic_points(A, P) == trace_power(A, P)
    assert count_periodic_points(incidence_matrix(make_e1()), 8) == 2**8


def test_symbolic_operations_build_no_dense_rows():
    for T in binary_mixing_corpus(seed=16, count=6) + [make_e1()]:
        A = incidence_matrix(T)
        is_binary(A)
        is_mixing(A)
        count_periodic_points(A, 5)
        if is_binary(A):
            enumerate_orbits(A, 5)
        str(A)
        assert set(vars(A)) == {"succ"}
    assert dense_rows(A) == ((2,),)


def test_printout_is_the_text_of_the_dense_rows():
    types = random_corpus(seed=5, count=30) + binary_mixing_corpus(seed=16, count=6)
    for T in types + [make_e0(), make_e1(), make_e3(), wp_refine(make_e2(), 6).refined]:
        A = incidence_matrix(T)
        assert str(A) == "\n".join(",".join(map(str, row)) for row in dense_rows(A))


def test_constructor_rejects_bad_successor_maps():
    for succ in [(), ({2: 1},), ({0: 1},), ({1: 0},), ({1: -1},)]:
        with pytest.raises(ValueError):
            IncidenceMatrix(succ)
    A = IncidenceMatrix(({2: 1, 1: 3}, {}))
    assert list(A.succ[0]) == [1, 2] and dense_rows(A) == ((3, 1), (0, 0))


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


def _words(orbits):
    return tuple(o.canonical.word for o in orbits)


def test_enumerate_orbits_matches_the_lyndon_scan():
    """The prenecklace search finds the words of the rotation-testing scan."""
    for seed in range(5):
        for T in binary_mixing_corpus(seed=seed, count=10):
            A = incidence_matrix(T)
            for P in range(9):
                assert _words(enumerate_orbits(A, P)) == lyndon_scan_orbits(A, P)
    A = incidence_matrix(make_e2())
    for P in range(15):
        assert _words(enumerate_orbits(A, P)) == lyndon_scan_orbits(A, P)


@pytest.mark.slow
def test_enumerate_orbits_matches_the_lyndon_scan_on_long_periods():
    A = incidence_matrix(make_e2())
    assert _words(enumerate_orbits(A, 18)) == lyndon_scan_orbits(A, 18)


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


def test_code_orbit_normalizes_any_phase():
    """An orbit is built from any phase or power of a phase, and keys on a
    new code, so a code that keeps its orbit is not referenced by it."""
    assert CodeOrbit(PeriodicCode((2, 1))).canonical.word == (1, 2)
    assert CodeOrbit.from_word((1, 2, 1, 2)) == CodeOrbit.from_word((2, 1))
    code = PeriodicCode((1, 2))
    assert code.orbit().canonical == code and code.orbit().canonical is not code


@pytest.mark.parametrize("word", [(1.0, 2.0), (1, 2.0), (True,), (1, False), ("1",), (1, None)])
def test_code_constructors_accept_only_int_symbols(word, e2):
    """A float, bool, string or None symbol is refused by both public
    constructors and by ``CodeOrbit.from_word`` with a ValueError, so
    s_refine and classify_code never meet one as a list index and never end
    in a bare TypeError."""
    with pytest.raises(ValueError, match="positive integers"):
        PeriodicCode(word)
    with pytest.raises(ValueError, match="positive integers"):
        CodeOrbit.from_word(word)
    for left, middle, right in ((word, (), (1,)), ((1,), word, (1,)), ((1,), (), word)):
        with pytest.raises(ValueError, match="positive integers"):
            EventuallyPeriodicCode(left, middle, right)
    for call in (
        lambda: s_refine(e2, [word]),
        lambda: classify_code(e2, EventuallyPeriodicCode((1,), word, (2,))),
    ):
        with pytest.raises(ValueError, match="positive integers"):
            call()


def test_eventually_periodic_code_keeps_tuples(e2):
    code, twin = EventuallyPeriodicCode([1], [2], [2]), EventuallyPeriodicCode((1,), (2,), (2,))
    assert code == twin and hash(code) == hash(twin)
    assert classify_code(e2, code) == "corner-leaf"


def _require_checked_twin(code):
    """``code`` equals the checked ``PeriodicCode`` of its word, with the same
    hash and repr."""
    twin = PeriodicCode(code.word)
    assert type(code.word) is tuple and all(type(s) is int for s in code.word)
    assert code == twin and hash(code) == hash(twin) and repr(code) == repr(twin)


def _require_orbit_key(orbit):
    """An orbit's key is a checked code's twin and its own least rotation, and
    the key's orbit, built with no rotation, is the orbit itself."""
    key = orbit.canonical
    _require_checked_twin(key)
    assert key.word == min_rotation(key.word) and key.orbit() == orbit


def _require_unchecked_paths_match(orbits):
    """Enumerated orbits, every phase (a rotation of the key) and its time
    reversal, and the orbits of a phase and of a power of one."""
    for orbit in orbits:
        _require_orbit_key(orbit)
        for phase in orbit.phases():
            _require_checked_twin(phase)
            _require_checked_twin(phase.reversed_pointed())
            assert phase.orbit() == orbit
        assert CodeOrbit(PeriodicCode(phase.word)) == orbit
        for built in (CodeOrbit(phase), CodeOrbit.from_word(phase.word * 2)):
            _require_orbit_key(built)
            assert built == orbit


def test_unchecked_codes_equal_their_checked_twins():
    """Every code the library builds without a check (rotations, reversals,
    orbit keys of any phase or power, enumerated orbits, recoded codes)
    equals ``PeriodicCode`` of its word, with the same hash and repr: on a
    binary corpus for P <= 8 and on E2 for P <= 12, P = 13, 14 being slow."""
    corpus = dict.fromkeys(T for seed in range(5) for T in binary_mixing_corpus(seed, count=10))
    for T in corpus:
        A = incidence_matrix(T)
        orbits = enumerate_orbits(A, 8)
        _require_unchecked_paths_match(orbits)
        boundary = {c.orbit() for c in per_s_codes(T)}
        result = s_refine(T, [o.canonical for o in orbits if o.period <= 4 and o not in boundary])
        for o in orbits[:40]:
            for phase in o.phases():
                for code in result.recode(phase):
                    _require_checked_twin(code)
    E2 = make_e2()
    A = incidence_matrix(E2)
    _require_unchecked_paths_match(enumerate_orbits(A, 12))
    result = wp_refine(E2, 6)
    for o in enumerate_orbits(A, 8):
        for phase in o.phases():
            for code in result.recode(phase):
                _require_checked_twin(code)


@pytest.mark.slow
def test_unchecked_codes_equal_their_checked_twins_on_long_periods():
    orbits = enumerate_orbits(incidence_matrix(make_e2()), 14)
    _require_unchecked_paths_match([o for o in orbits if o.period > 12])


def test_enumerate_orbits_builds_canonical_orbits_unchecked(monkeypatch):
    """A Lyndon word is primitive and its own least rotation, so the search
    neither takes a root nor rotates, and the orbit of an enumerated key
    code rotates nothing either."""
    calls: list[str] = []
    for name in ("primitive_root", "min_rotation"):
        real = getattr(geotype.shift, name)
        monkeypatch.setattr(
            geotype.shift, name, lambda word, name=name, real=real: calls.append(name) or real(word)
        )
    orbits = enumerate_orbits(incidence_matrix(make_e2()), 10)
    assert len(orbits) == 226
    for o in orbits:
        assert o.canonical.orbit() == o
        assert o.phases()[0].orbit() == o
    assert calls == []
    orbits[-1].canonical.rotate(1).orbit()
    assert calls == ["min_rotation"]


@settings(max_examples=300)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=16))
def test_min_rotation_is_the_least_of_all_rotations(word):
    """Comparing only the rotations that start at the least symbol gives the
    least of all rotations, on a small alphabet so that the least symbol
    recurs; the orbit key of a word and of its square is the least rotation
    of its primitive root."""
    word = tuple(word)
    assert min_rotation(word) == min(word[k:] + word[:k] for k in range(len(word)))
    root = primitive_root(word)
    key = min(root[k:] + root[:k] for k in range(len(root)))
    assert CodeOrbit.from_word(word).canonical.word == CodeOrbit.from_word(word * 2).canonical.word == key


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
    """``classify_code`` is the admissibility check of an eventually periodic
    code: it gives an admissible code a verdict and raises otherwise."""
    corner = EventuallyPeriodicCode((1,), (2,), (2,))
    assert classify_code(e2, corner) == "corner-leaf"
    B = GeometricType((1, 2), (1, 2), ((2, 1), (1, 1), (2, 2)), (1, 1, 1))
    assert dense_rows(incidence_matrix(B)) == ((0, 1), (1, 1))
    with pytest.raises(AdmissibilityError, match="forbidden by the incidence matrix"):
        classify_code(B, EventuallyPeriodicCode((1,), (), (1,)))
    assert classify_code(B, EventuallyPeriodicCode((1, 2), (), (2,))) == "corner-leaf"


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
