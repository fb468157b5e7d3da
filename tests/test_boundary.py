"""Generating functions, boundary code sets, corner property, classification."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings

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
    enumerate_orbits,
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
from geotype import GeoTypeError, InvariantError, boundary, s_refine, u_refine
from geotype.boundary import boundary_report, cutting_family
from geotype.shift import AdmissibilityError, binary_branches, primitive_root

from conftest import (
    binary_mixing_corpus,
    make_e0,
    make_e1m,
    make_e2,
    make_e3,
    orientation_reversing_bin_types,
    record_builds,
    su_labels,
    valid_types,
)
from reference import (
    boundary_orbits_by_from_word,
    branches_by_labels,
    canonical_tail,
    cutting_family_by_code,
    step_column_by_labels,
    tail_scan_classify,
    walked_boundary_orbits,
)


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


@settings(max_examples=60)
@given(valid_types())
def test_gamma_slots_agree_with_the_per_label_definition(T):
    """Slot 2(i-1) of the gamma table holds the bottom edge (i, -1) and slot
    2i-1 the top edge (i, +1); each agrees with gamma read label by label off
    the strip theta(L) that holds the edge, and a bad label raises."""
    for slot, label in enumerate(su_labels(T)):
        k, _, eps = T.phi(theta(T, label))
        expected = SULabel(k, label.eps * eps)
        assert gamma_step(T, label) == expected
        assert T._gamma[slot] == (2 * k - 1 if expected.eps == 1 else 2 * k - 2)
        trace = s_boundary_positive_code(T, label).trace
        assert trace[0] == label and (trace[1] if len(trace) > 1 else label) == expected
    for bad in (SULabel(0, 1), SULabel(T.n + 1, -1), SULabel(1, 0)):
        with pytest.raises(ValueError, match="invalid boundary label"):
            theta(T, bad)
        with pytest.raises(ValueError, match="invalid boundary label"):
            gamma_step(T, bad)
        with pytest.raises(ValueError, match="invalid boundary label"):
            s_boundary_positive_code(T, bad)


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
            canonical_tail(s_boundary_positive_code(T, label))
            for label in su_labels(T)
        ]
        assert len(set(tails)) == 2 * T.n
        tails_u = [
            canonical_tail(u_boundary_negative_code(T, label))
            for label in su_labels(T)
        ]
        assert len(set(tails_u)) == 2 * T.n


def test_injectivity_fails_for_degenerate_singleton(e0):
    tails = {
        canonical_tail(s_boundary_positive_code(e0, label)) for label in su_labels(e0)
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


def test_cycle_orbits_match_the_from_word_reference():
    """Each gamma cycle is keyed with no symbol check; on both sides the
    orbits equal those of every label's cycle keyed through
    ``CodeOrbit.from_word``, on the seeded corpora and on every stage of
    wp_refine(E2, P) for P = 2..8.  A rectangle of one strip that a flip
    maps into itself or a partner sends each edge to the other, so its
    gamma cycle passes both edges and its rectangle word is a proper power,
    (1, 1) or (1, 2, 1, 2): without the primitive root its orbit would be
    keyed by that power.  The reference walk ``walked_boundary_orbits``,
    which reads no gamma table, gives the same orbits."""
    flip = GeometricType.build((1,), (1,), {(1, 1): (1, 1, -1)})
    swap = GeometricType.build((1, 1), (1, 1), {(1, 1): (2, 1, 1), (2, 1): (1, 1, -1)})
    types = [flip, swap] + binary_mixing_corpus(seed=29, count=8)
    types += orientation_reversing_bin_types(79, 6)
    for P in range(2, 9):
        types += [stage.refined for stage in wp_refine(make_e2(), P).stages]
    for T in types:
        for unstable in (False, True):
            orbits = boundary_orbits(T, unstable=unstable)
            assert orbits == boundary_orbits_by_from_word(T, unstable) == walked_boundary_orbits(T, unstable)
    for T, word in ((flip, (1,)), (swap, (1, 2))):
        assert s_boundary_positive_code(T, SULabel(1, -1)).cycle == word * 2
        for unstable in (False, True):
            assert [o.canonical.word for o in boundary_orbits(T, unstable=unstable)] == [word]


def test_boundary_codes_take_linear_gamma_steps(monkeypatch):
    """Each side's codes come from one table of gamma on the 2n labels, kept
    on the type: every boundary derivation on T together builds one table on
    T and one on invert(T), and no walk takes a gamma step of its own."""
    refined = wp_refine(make_e2(), 6).refined
    T = GeometricType(refined.h, refined.v, refined.rho, refined.eps)  # no cached facts
    assert T.n == 314
    builds = record_builds(monkeypatch, "_gamma")
    per_s_codes(T)
    per_u_codes(T)
    boundary_report(T)
    assert has_corner_property(T)
    cycle = min(boundary_orbits(T), key=CodeOrbit.sort_key).canonical.word
    assert classify_code(T, EventuallyPeriodicCode(cycle, (), cycle)) == "corner-leaf"
    assert [(id(U), size) for U, size in builds] == [(id(T), 2 * T.n), (id(invert(T)), 2 * T.n)]


def test_boundary_sets_examples(e0, e2, e3):
    sets = boundary_sets(e2)
    assert words(sets.s_codes) == words(sets.u_codes) == [(1,), (2,)]
    assert sets.b_codes == sets.s_codes & sets.u_codes
    sets3 = boundary_sets(e3)
    assert words(sets3.b_codes) == [(1,), (1, 3), (2, 4), (3, 1), (4,), (4, 2)]
    assert words(sets3.s_codes & sets3.u_codes) == [(1,), (4,)]
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


VERDICTS = {"S-leaf", "U-leaf", "corner-leaf", "interior"}


def _classify_types(max_n: int):
    """E0, E2, E3, bin(E1m) and bin(E3), four more mixing binary types and
    three orientation-reversing ones, keeping those with n <= max_n."""
    types = [make_e0(), make_e2(), make_e3(), bin_refine(make_e1m()).refined]
    types += [bin_refine(make_e3()).refined] + binary_mixing_corpus(seed=35, count=7)[3:]
    types += orientation_reversing_bin_types(seed=36, count=3)
    return [T for T in types if T.n <= max_n]


def _outcome(classify, T, code):
    try:
        return classify(T, code)
    except GeoTypeError as exc:
        return type(exc), str(exc)


def _compare_with_tail_scan(types, max_cycle: int, max_middle: int) -> list:
    """Every L^inf M R^inf with admissible cycles L and R of length <= max_cycle
    and any middle of length <= max_middle: ``classify_code`` must give the
    tail scan's verdict, or raise its error.  Returns the (code, verdict)
    pairs of the admissible codes."""
    seen = []
    for T in types:
        binary_branches(T)
        branches = branches_by_labels(T)
        symbols = range(1, T.n + 1)
        cycles = [
            w
            for k in range(1, max_cycle + 1)
            for w in product(symbols, repeat=k)
            if all(step in branches for step in zip(w, w[1:] + w[:1]))
        ]
        middles = [w for k in range(max_middle + 1) for w in product(symbols, repeat=k)]
        for left, middle, right in product(cycles, middles, cycles):
            code = EventuallyPeriodicCode(left, middle, right)
            expected = _outcome(tail_scan_classify, T, code)
            assert _outcome(classify_code, T, code) == expected, (T, code)
            if expected in VERDICTS:
                seen.append((code, expected))
    return seen


def _assert_coverage(seen) -> None:
    assert {verdict for _, verdict in seen} == VERDICTS
    assert any(
        code.middle and primitive_root(code.right_cycle) != code.right_cycle and verdict != "interior"
        for code, verdict in seen
    )


def test_classify_agrees_with_the_tail_scan():
    _assert_coverage(_compare_with_tail_scan(_classify_types(max_n=4), max_cycle=2, max_middle=1))


@pytest.mark.slow
def test_classify_agrees_with_the_tail_scan_on_longer_codes():
    _assert_coverage(_compare_with_tail_scan(_classify_types(max_n=8), max_cycle=3, max_middle=2))


def test_classify_walks_no_boundary_label(monkeypatch, e3):
    """Classification reads the kept boundary orbits, not one walk per label."""

    def walk(*args):
        raise AssertionError("classify_code walked a boundary label")

    monkeypatch.setattr(boundary, "_orbit_summary", walk)
    assert classify_code(e3, EventuallyPeriodicCode((1,), (2, 4), (4,))) == "corner-leaf"
    assert classify_code(make_e2(), EventuallyPeriodicCode((1, 2), (), (1, 2))) == "interior"


def test_corner_codes_classify_as_corner_leaves():
    for T in binary_mixing_corpus(seed=35, count=6):
        sets = boundary_sets(T)
        for code in sets.s_codes & sets.u_codes:
            embedded = EventuallyPeriodicCode(code.word, (), code.word)
            assert classify_code(T, embedded) == "corner-leaf"


def test_boundary_report_deterministic(e2):
    assert boundary_report(e2) == boundary_report(e2)
    assert boundary_report(e2).endswith("CORNER true\n")


# -- cutting families -------------------------------------------------------------


def _mixed_family(T: GeometricType, rng: random.Random) -> list:
    """Up to six items: phases of orbits of period <= 4 and of boundary
    orbits of either side, some given as raw tuples or lists (so repeats
    list an orbit twice), and faults: a symbol past n (n + 2 aliases a valid
    key), a forbidden step, a non-primitive or empty raw word, and a
    non-integer symbol."""
    orbits = list(enumerate_orbits(incidence_matrix(T), 4))
    orbits += sorted(boundary_orbits(T) | boundary_orbits(T, unstable=True), key=CodeOrbit.sort_key)
    branches = binary_branches(T)
    forbidden = [
        PeriodicCode((a, b) if a != b else (a,))
        for a, b in product(range(1, T.n + 1), repeat=2)
        if a * (T.n + 1) + b not in branches
    ]
    good = orbits[rng.randrange(len(orbits))].canonical
    faults = [
        PeriodicCode((1, T.n + 2)),
        (T.n + 1,),
        good.word * 2,
        (),
        (1.0,) + good.word[1:],
    ] + forbidden
    family: list = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.2:
            family.append(rng.choice(faults))
            continue
        orbit = orbits[rng.randrange(len(orbits))]
        code = orbit.canonical.rotate(rng.randrange(orbit.period))
        family.append(rng.choice([code, code, code.word, list(code.word)]))
    return family


def _family_outcome(check, T, W, **options) -> tuple[str, object]:
    """("ok", the family's words), or the class name and message of the error raised."""
    try:
        family = check(T, W, **options)
    except (GeoTypeError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(code) is PeriodicCode for code in family)
    return "ok", tuple(code.word for code in family)


@pytest.mark.parametrize("drop_boundary", [False, True], ids=["keep", "drop"])
@pytest.mark.parametrize("unstable", [False, True], ids=["s", "u"])
def test_cutting_family_matches_the_per_code_check(unstable, drop_boundary):
    """Seeded families that mix faults: the whole-family check returns the
    per-code reference's family, or raises its first fault's class and
    message; the one-pass check alone returns that family, or ``None``
    exactly when the reference raises.  Its step column is that of the
    family on T, or of the time-reversed family on the inverse for the
    unstable side."""
    rng = random.Random(67 + 2 * unstable + drop_boundary)
    types = binary_mixing_corpus(seed=53, count=6) + orientation_reversing_bin_types(59, 4)
    options = {"unstable": unstable, "drop_boundary": drop_boundary}
    seen: Counter = Counter()
    for T in types:
        side = boundary._boundary_words(T, unstable)
        host = invert(T) if unstable else T
        for _ in range(40):
            W = _mixed_family(T, rng)
            expected = _family_outcome(cutting_family_by_code, T, W, **options)
            assert _family_outcome(cutting_family, T, W, **options) == expected, W
            assert _family_outcome(cutting_family, T, iter(W), **options) == expected, W
            branches = binary_branches(host)
            once = boundary._check_at_once(T.n, branches, side, W, unstable, drop_boundary)
            seen[expected[0]] += 1
            if expected[0] == "ok":
                kept, column = once
                assert tuple(code.word for code in kept) == expected[1], W
                walked = [w.reversed_pointed() for w in kept] if unstable else kept
                assert column == step_column_by_labels(host, walked), W
            else:
                assert once is None, W
    faults = {"AdmissibilityError", "DuplicateOrbitError", "ValueError"}
    faults |= set() if drop_boundary else {"BoundaryCodeError"}
    assert seen["ok"] >= 40 and faults <= set(seen), seen


def test_a_failed_family_check_never_returns_a_walked_family(monkeypatch):
    """The code-by-code walk only names the fault that made the whole-family
    check fail.  Should it find none, the check raises ``InvariantError``
    instead of returning a family of its own, on both sides, from
    ``cutting_family`` and from both refinements."""
    T = make_e2()
    W12 = PeriodicCode((1, 2))
    monkeypatch.setattr(boundary, "_check_by_code", lambda *args: None)
    faulty = ([W12, W12.rotate(1)], [(1, 3)], [(1.0, 2)], [PeriodicCode((1,))])
    checks = (
        cutting_family,
        lambda T, W: cutting_family(T, W, unstable=True),
        lambda T, W: cutting_family(T, W, drop_boundary=True),
        s_refine,
        u_refine,
    )
    for W in faulty:
        for check in checks:
            if W == faulty[-1] and check is checks[2]:
                continue  # a dropped boundary code is no fault
            with pytest.raises(InvariantError, match="no code has a fault"):
                check(T, W)
    assert cutting_family(T, [PeriodicCode((1,)), W12], drop_boundary=True) == (W12,)
