"""The exact affine realization and its agreement with the formula engine."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotype import (
    AffineModel,
    BoundaryCodeError,
    DuplicateOrbitError,
    GeoTypeError,
    GeometricType,
    IntervalRef,
    NonBinaryError,
    PeriodicCode,
    VLabel,
    bin_refine,
    corner_refine,
    corner_refine_along,
    enumerate_orbits,
    incidence_matrix,
    is_mixing,
    model_svg,
    oracle_s_refine,
    parse,
    per_s_codes,
    periodic_point,
    realize,
    s_refine,
    serialize,
    wp_refine,
)
import geotype.core
import geotype.oracle
import geotype.shift
from geotype.oracle import TieError, _height_keys
from geotype.shift import AdmissibilityError, primitive_root

from conftest import (
    binary_mixing_corpus,
    cutting_families,
    make_e0,
    make_e1m,
    make_e2,
    orientation_reversing_bin_types,
    random_corpus,
    record_builds,
)
from reference import branches_by_labels, interval_less, r_of, strip_columns_by_labels

W12 = PeriodicCode((1, 2))


def test_realize_shapes(e0, e1, e1m):
    """Strip j of square i is [(j-1)/h_i, j/h_i]; its map y -> ay + b sends
    it onto [0, 1], upward exactly when eps = +1."""
    for T in (e0, e1, e1m, bin_refine(e1m).refined):
        model = realize(T)
        for x, (i, j) in enumerate(T.h_labels()):
            h_i = T.h[i - 1]
            a, b = model.a[x], model.b[x]
            ends = tuple(a * y + b for y in (Fraction(j - 1, h_i), Fraction(j, h_i)))
            assert ends == ((0, 1) if T.phi((i, j))[2] == 1 else (1, 0))


def test_model_columns_equal_the_strip_maps_by_labels():
    """The model's integer columns (a, b, k, l) equal the strip maps built
    label by label off ``T.rho``, on the seeded corpora and on every stage
    source of ``wp_refine(E2, P)``, P = 2..8."""
    types = random_corpus(seed=29, count=40) + random_corpus(seed=31, count=10, max_n=8, max_hv=6)
    types += binary_mixing_corpus(seed=37, count=8) + orientation_reversing_bin_types(41, 6)
    for P in range(2, 9):
        types += [stage.source for stage in wp_refine(make_e2(), P).stages]
    assert any(-1 in T.eps for T in types)
    for T in types:
        model = realize(T)
        columns = strip_columns_by_labels(T)
        assert (model.a, model.b, model.k, model.l) == tuple(zip(*columns))


def test_reextraction_roundtrip(e0, e1, e2, e1m):
    """The columns k, l and the signs of a give T back through the public
    constructor."""
    for T in (e0, e1, e2, bin_refine(e1m).refined, *binary_mixing_corpus(seed=71, count=6)):
        model = realize(T)
        eps = tuple(1 if a > 0 else -1 for a in model.a)
        assert GeometricType(T.h, T.v, tuple(zip(model.k, model.l)), eps) == T


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
        branches = branches_by_labels(T)
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
                    s = T.lex_index((i, branches[(i, code.symbol(m + 1))][0])) - 1
                    k, l = model.k[s], model.l[s]
                    x, y = (x + l - 1) / T.v[k - 1], model.a[s] * y + model.b[s]
                assert (x, y) == (point.x, point.y)
                periods.add(code.period)
    assert periods == {1, 2, 3, 4, 5, 6}


def _fraction_point(T, code, t):
    """The phase-t periodic point of ``code`` in ``Fraction`` arithmetic, read
    straight off T: the strip (i, j) of the step from i to k, with rho(i, j)
    = (k, l) and sign e, acts by x -> x / v_k + (l - 1) / v_k and y -> h_i y
    - (j - 1), or 1 minus that when e = -1.  The point is the fixed point of
    the period's composed maps x -> Cx + D and y -> Ay + B, x = 1/2 when C = 1."""
    C, D, A, B = Fraction(1), Fraction(0), Fraction(1), Fraction(0)
    for m in range(t, t + code.period):
        i, k = code.symbol(m), code.symbol(m + 1)
        j = next(j for j in range(1, T.h[i - 1] + 1) if T.phi((i, j))[0] == k)
        _, l, e = T.phi((i, j))
        c, d = Fraction(1, T.v[k - 1]), Fraction(l - 1, T.v[k - 1])
        a, b = (T.h[i - 1], 1 - j) if e == 1 else (-T.h[i - 1], j)
        C, D, A, B = c * C, c * D + d, a * A, a * B + b
    x = D / (1 - C) if C != 1 else Fraction(1, 2)
    return code.symbol(t), x, B / (1 - A)


def test_fraction_views_equal_the_fraction_formulas():
    """The strip maps hold integers; every ``periodic_point`` equals the
    same point computed in ``Fraction``s from T, along every non-boundary
    orbit of period <= 5."""
    types = binary_mixing_corpus(seed=73, count=5) + orientation_reversing_bin_types(79, 3)
    points = 0
    for T in types:
        model = realize(T)
        boundary = {c.orbit() for c in per_s_codes(T)}
        for orbit in enumerate_orbits(incidence_matrix(T), 5):
            if orbit in boundary:
                continue
            code = orbit.canonical
            for t in range(code.period):
                point = periodic_point(model, code, t)
                assert (point.square, point.x, point.y) == _fraction_point(T, code, t)
                assert type(point.x) is type(point.y) is Fraction
                points += 1
    assert points >= 200


def test_oracle_makes_no_fraction_until_cut_heights_are_read(monkeypatch):
    """``realize`` and ``oracle_s_refine`` run on integer columns: on both
    stable stages' inputs of ``wp_refine(E2, 6)``, as fresh type objects,
    they construct no ``Fraction`` and no ``VLabel``, build
    no ``rho`` view and call no public ``GeometricType`` constructor.
    Reading ``cut_heights`` then makes exactly one ``Fraction`` per cut line."""
    result = wp_refine(make_e2(), 6)
    sources = [parse(serialize(stage.source)) for stage in result.stages[:2]]
    made: list[tuple] = []
    objects: list[object] = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    class CountingVLabel(VLabel):
        def __new__(cls, *args):
            objects.append(args)
            return super().__new__(cls, *args)

    public = GeometricType.__init__

    def counting_init(self, *args):
        objects.append(args)
        public(self, *args)

    monkeypatch.setattr(geotype.oracle, "Fraction", CountingFraction)
    monkeypatch.setattr(geotype.core, "VLabel", CountingVLabel)
    monkeypatch.setattr(GeometricType, "__init__", counting_init)
    rho_builds = record_builds(monkeypatch, "rho")
    counts = []
    for source, stage in zip(sources, result.stages):
        made.clear()
        realize(source)
        oracle = oracle_s_refine(source, stage.order.family)
        assert made == [] and objects == [] and rho_builds == []
        assert oracle.refined == stage.refined
        heights = [y for row in oracle.cut_heights for y, _, _ in row]
        assert all(type(y) is CountingFraction for y in heights)
        counts.append((len(made), len(heights)))
    lines = sum(code.period for code in result.stages[0].order.family)
    assert lines > 0 and counts == [(lines, lines), (0, 0)]


def _check_stable_stages(result) -> tuple[int, int]:
    """Every stage of kind 's' equals ``oracle_s_refine`` on the stage's
    source and checked family, in refined type and label map.  Returns the
    number of stages checked and how many of them cut something."""
    checked = cutting = 0
    for stage in result.stages:
        if stage.kind != "s":
            continue
        oracle = oracle_s_refine(stage.source, stage.order.family)
        assert oracle.refined == stage.refined
        assert oracle.label_map == stage.label_map
        checked += 1
        cutting += bool(stage.order.family)
    return checked, cutting


def test_pipeline_stable_stages_equal_the_oracle():
    """The oracle checks the pipelines' stable stages: every s-stage of
    ``wp_refine(E2, P)`` for P = 2..8 (up to n = 1412), and of
    ``corner_refine`` and ``corner_refine_along`` on a seeded corpus.  The
    u-stages are not checked here: that needs an unstable-side oracle
    (``oracle_u_refine``), which the library does not have yet."""
    E2 = make_e2()
    for P in range(2, 9):
        assert _check_stable_stages(wp_refine(E2, P)) == (2, 1), P
    checked = cutting = 0
    types = binary_mixing_corpus(seed=59, count=6) + orientation_reversing_bin_types(61, 3)
    for T in types:
        corner = corner_refine(T)
        for run in [corner] + [
            corner_refine_along(corner.refined, family)
            for family in cutting_families(corner.refined)[:4]
        ]:
            done, cut = _check_stable_stages(run)
            checked, cutting = checked + done, cutting + cut
    assert checked >= 80 and cutting >= 35


def _reference_pieces(model, marks, i, lo, hi):
    """The pieces of band [lo, hi] of square i, found by scanning every strip
    and dividing in Fractions: ``{(k, band, l): (preimage, j, a)}``, where a
    target band of the piece's image contributes the lower end of its
    preimage under strip j's map y -> ay + b."""
    h_i = model.source.h[i - 1]
    pieces = {}
    for j in range(1, h_i + 1):
        piece_lo, piece_hi = max(lo, Fraction(j - 1, h_i)), min(hi, Fraction(j, h_i))
        if piece_lo >= piece_hi:
            continue
        x = model.source.lex_index((i, j)) - 1
        a, b, k, l = model.a[x], model.b[x], model.k[x], model.l[x]
        row = marks[k - 1]
        img_lo, img_hi = sorted(a * y + b for y in (piece_lo, piece_hi))
        for band in range(row.index(img_lo) + 1, row.index(img_hi) + 1):
            pre = min((row[band - 1] - b) / a, (row[band] - b) / a)
            pieces[(k, band, l)] = (pre, j, a)
    return pieces


def test_oracle_band_order_is_preimage_order():
    """Each refined rectangle's strips come in the order of their preimages
    in the source band, though the oracle derives that order from the strip
    maps' monotonicity instead of sorting preimages."""
    types = (
        binary_mixing_corpus(seed=97, count=5)
        + orientation_reversing_bin_types(101, 4)
        + [bin_refine(make_e1m()).refined]
    )
    assert any(max(T.h) >= 3 for T in types)
    multi_strip_band = reversed_sweep = False
    for T in types:
        model = realize(T)
        for family in cutting_families(T)[:8]:
            result = oracle_s_refine(T, family)
            marks = [
                [Fraction(0)] + [y for y, _, _ in bucket] + [Fraction(1)]
                for bucket in result.cut_heights
            ]
            refined = result.refined
            for r, (i, s) in enumerate(result.label_map, start=1):
                reference = _reference_pieces(model, marks, i, *marks[i - 1][s - 1:s + 1])
                pieces = []
                for J in range(1, refined.h[r - 1] + 1):
                    target, l, e = refined.phi((r, J))
                    pre, j, a = reference[(*result.label_map[target - 1], l)]
                    assert e == (1 if a > 0 else -1)
                    pieces.append((pre, j, a))
                assert len(pieces) == len(reference)
                assert all(p[0] < q[0] for p, q in zip(pieces, pieces[1:]))
                strips = [j for _, j, _ in pieces]
                multi_strip_band |= len(set(strips)) >= 2
                reversed_sweep |= any(
                    a < 0 and strips.count(j) >= 2 for _, j, a in pieces
                )
    assert multi_strip_band and reversed_sweep


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
                    expected.append(r_of(result, i, s))
                assert code.word == primitive_root(tuple(expected))


def test_recoded_cut_codes_match_oracle_flanks():
    """Each cut code, given at any phase, recodes to the two itineraries
    that flank its stable line in the affine model: bands p and p + 1 of
    the host square, where p ranks the line among the square's exact cut
    heights, trading sides after every strip map that reverses y.  The walk
    takes two periods, which covers both orientation products."""
    corpus = binary_mixing_corpus(seed=47, count=5) + orientation_reversing_bin_types(3, 4)
    checked = swapped = 0
    for T in corpus:
        model = realize(T)
        branches = branches_by_labels(T)
        for family in cutting_families(T)[:3]:
            result = s_refine(T, family)
            geometric = oracle_s_refine(T, family)
            heights = [sorted(y for y, _, _ in bucket) for bucket in geometric.cut_heights]
            band = {label: r for r, label in enumerate(geometric.label_map, start=1)}
            for w in family:
                for d in range(w.period):
                    code = w.rotate(d)
                    sides = []  # (band below, band above, slope sign) at each phase
                    for t in range(code.period):
                        i, k = code.symbol(t), code.symbol(t + 1)
                        p = 1 + heights[i - 1].index(periodic_point(model, code, t).y)
                        a = model.a[T.lex_index((i, branches[(i, k)][0])) - 1]
                        sides.append((band[(i, p)], band[(i, p + 1)], 1 if a > 0 else -1))
                    below: list[int] = []
                    above: list[int] = []
                    delta = 1  # orientation product of the steps so far
                    for t in range(2 * code.period):
                        low, high, sign = sides[t % code.period]
                        below.append(low if delta == 1 else high)
                        above.append(high if delta == 1 else low)
                        delta *= sign
                    swapped += any(sign == -1 for _, _, sign in sides)
                    expected = {PeriodicCode(primitive_root(x)) for x in (below, above)}
                    assert result.recode(code) == expected, (T, family, code)
                    checked += 1
    assert checked >= 60 and swapped >= 40


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


def test_a_step_with_two_strips_is_non_binary(e1, e3):
    """E1's code 1 is admissible, since a_11 = 2, but its one step has two
    strips: a ``NonBinaryError``.  A step with no strip stays an
    ``AdmissibilityError``.  Of two faulty steps, the first in word order
    names the error."""
    two = r"^square 1 has 2 strips into square 1$"
    for T, code, error, message in (
        (e1, PeriodicCode((1,)), NonBinaryError, two),
        (e3, PeriodicCode((1, 4)), AdmissibilityError, r"^square 1 has 0 strips into square 4$"),
    ):
        model = realize(T)
        for run in (lambda: periodic_point(model, code), lambda: model_svg(T, [code])):
            with pytest.raises(error, match=message):
                run()
    # a_11 = 2 and a_22 = 0: the steps 1 -> 1 and 2 -> 2 are both faulty
    T = GeometricType((3, 1), (3, 1), ((1, 1), (1, 2), (2, 1), (1, 3)), (1, 1, 1, 1))
    model = realize(T)
    for word, error, message in (
        ((1, 1, 2, 2), NonBinaryError, two),
        ((2, 2, 1, 1), AdmissibilityError, r"^square 2 has 0 strips into square 2$"),
    ):
        code = PeriodicCode(word)
        for run in (lambda: periodic_point(model, code), lambda: model_svg(T, [code])):
            with pytest.raises(error, match=message):
                run()


def _farey_neighbour(y: Fraction) -> Fraction:
    """The fraction b/q_2 above y = a/q (or below, for y = 1) with
    |b q - a q_2| = 1, so the two differ by exactly 1/(q q_2)."""
    if y.denominator == 1:
        return 1 - y
    q2 = -pow(y.numerator, -1, y.denominator) % y.denominator
    return Fraction((y.numerator * q2 + 1) // y.denominator, q2)


@st.composite
def height_lists(draw):
    """Heights in [0, 1] with denominators up to 2^64, often of full 64-bit
    length: each drawn height with its Farey neighbour, plus some repeated
    heights, in random order."""
    heights: list[Fraction] = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, 2**64) | st.integers(2**63, 2**64))
        y = Fraction(draw(st.integers(0, q)), q)
        heights += [y, _farey_neighbour(y)]
    heights += draw(st.lists(st.sampled_from(heights), max_size=3))
    return draw(st.permutations(heights))


@settings(max_examples=300, deadline=None)
@given(height_lists())
def test_height_keys_order_exactly_as_fractions(heights):
    for y in heights:
        n = _farey_neighbour(y)
        assert 0 <= n <= 1 and abs(n - y) == Fraction(1, y.denominator * n.denominator)
    K = 2 * max(y.denominator.bit_length() for y in heights) + 1
    keys = list(_height_keys([y.numerator for y in heights], [y.denominator for y in heights], K))
    for (y, key_y), (z, key_z) in product(zip(heights, keys), repeat=2):
        assert (key_y < key_z) == (y < z)
        assert (key_y == key_z) == (y == z)


@st.composite
def rationals_on_one_scale(draw):
    """B, and rationals in [-H, H + 1] with denominators below 2^B: each
    drawn rational m + r with its neighbour m + r', |r - r'| = 1/(q q_2) for
    q_2 <= q, plus some repeats, in random order."""
    B = draw(st.integers(1, 64))
    H = draw(st.integers(0, 2**16))
    ys: list[Fraction] = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, 2**B - 1) | st.integers(2 ** (B - 1), 2**B - 1))
        m = draw(st.integers(-H, H))
        r = Fraction(draw(st.integers(0, q)), q)
        ys += [m + r, m + _farey_neighbour(r)]
    ys += draw(st.lists(st.sampled_from(ys), max_size=3))
    return B, H, draw(st.permutations(ys))


@settings(max_examples=300, deadline=None)
@given(rationals_on_one_scale())
def test_height_keys_separate_rationals_on_one_scale(drawn):
    """The oracle's single scale: every height it keys, image under a strip
    map included, has a denominator below 2^B, and at K = 2B + 1 the keys of
    such rationals are injective and keep their order, in any range."""
    B, H, ys = drawn
    assert all(-H <= y <= H + 1 and y.denominator < 2**B for y in ys)
    keys = list(_height_keys([y.numerator for y in ys], [y.denominator for y in ys], 2 * B + 1))
    for (y, key_y), (z, key_z) in product(zip(ys, keys), repeat=2):
        assert (key_y < key_z) == (y < z)
        assert (key_y == key_z) == (y == z)


def _tall_square_type() -> GeometricType:
    """A mixing binary type whose square 16 has h = 16, one strip into every
    square, while the code 1, whose one step is the flipped strip (1,1) of
    slope -2, cuts square 1 at 1/3: the largest h_i has 5 bits and the one
    cut denominator, 3, has 2."""
    h = v = (2,) + (1,) * 14 + (16,)
    rho = {(1, 1): (1, 2, -1), (1, 2): (16, 1, 1)}
    rho.update({(i, 1): (16, i, 1) for i in range(2, 16)})
    rho.update({(16, j): (j, 1, 1) for j in range(1, 16)})
    rho[(16, 16)] = (16, 16, 1)
    return GeometricType.build(h, v, rho)


def test_scale_counts_the_tallest_square(monkeypatch):
    """The scale's B takes every h_i, not only the cut denominators.  On the
    valid type the oracle equals the engine.  With strip (16,1)'s slope cut
    from 16 to 5, its top edge 1/16 lands on 5/16, off square 1's grid {0,
    1/3, 1}: at K = 11 the keys of 5/16 and 1/3 differ, but at the K = 5 of
    the cut denominators alone both are 10, and the miss would go unseen."""
    T = _tall_square_type()
    W = [PeriodicCode((1,))]
    model = realize(T)
    dens = [geotype.oracle._orbit_walk(model, code)[1] for code in W]
    assert dens == [3] and max(T.h).bit_length() > max(d.bit_length() for d in dens)
    assert is_mixing(incidence_matrix(T))
    engine, oracle = s_refine(T, W), oracle_s_refine(T, W)
    assert engine.refined == oracle.refined and engine.label_map == oracle.label_map
    assert oracle.cut_heights[0] == ((Fraction(1, 3), 0, W[0]),)
    assert list(_height_keys([5, 1], [16, 3], 5)) == [10, 10]

    real = geotype.oracle.realize
    x = T.lex_index((16, 1)) - 1

    def perturbed(U):
        model = real(U)
        assert model.a[x] == 16
        return AffineModel(model.source, model.a[:x] + (5,) + model.a[x + 1:], model.b, model.k, model.l)

    monkeypatch.setattr(geotype.oracle, "realize", perturbed)
    with pytest.raises(GeoTypeError, match="image of a band edge missed the cut grid"):
        oracle_s_refine(T, W)


def test_equal_heights_in_one_square_raise_tie_error(e2, monkeypatch):
    """Two cut lines of square 1 put at one height: they share one key and
    one cell of the cut grid, which reports the tie."""
    walk = geotype.oracle._orbit_walk

    def flattened(model, code):
        strips, _, nums = walk(model, code)
        assert [model.k[x] for x in strips] == list(code.word[1:] + code.word[:1])
        return strips, 2, [1] * len(nums)

    monkeypatch.setattr(geotype.oracle, "_orbit_walk", flattened)
    with pytest.raises(TieError, match="exact tie between distinct cut lines in square 1"):
        oracle_s_refine(e2, [W12, PeriodicCode((1, 2, 2))])


def test_perturbed_strip_map_misses_the_cut_grid(e2, monkeypatch):
    """Strip (1,1), which no cut line's orbit runs through, shifted up by one
    in the model's b column: the image of its top edge misses square 1's grid."""
    real = geotype.oracle.realize

    def perturbed(T):
        model = real(T)
        return AffineModel(model.source, model.a, (model.b[0] + 1,) + model.b[1:], model.k, model.l)

    monkeypatch.setattr(geotype.oracle, "realize", perturbed)
    with pytest.raises(GeoTypeError, match="image of a band edge missed the cut grid"):
        oracle_s_refine(e2, [W12, PeriodicCode((1, 2, 2))])


def test_reversed_mark_order_is_not_monotone(e2, monkeypatch):
    """Square 1's two cuts, both in strip (1,2), put top down: their images
    come out in decreasing order on square 2's grid."""
    real = geotype.oracle._rank_cuts

    def reversed_first_square(hosts, keys, n):
        rows = real(hosts, keys, n)
        assert len(rows[0]) == 2
        rows[0].reverse()
        return rows

    monkeypatch.setattr(geotype.oracle, "_rank_cuts", reversed_first_square)
    with pytest.raises(GeoTypeError, match=r"strip \(1,2\) does not map its marks monotonically"):
        oracle_s_refine(e2, [W12, PeriodicCode((1, 2, 2))])


def test_each_code_builds_its_orbit_once(monkeypatch):
    """A code keeps its orbit, outside ==, hash and repr, so s_refine and
    then oracle_s_refine on the same code objects build each orbit once,
    with one least-rotation call per build of a checked code's orbit."""
    T = bin_refine(make_e1m()).refined
    s_orbits = {c.orbit() for c in per_s_codes(T)}
    W = [o.canonical.rotate(1) for o in enumerate_orbits(incidence_matrix(T), 5)]
    W = [w for w in W if w.orbit() not in s_orbits]
    code = next(w for w in W if w != w.orbit().canonical)  # a non-canonical phase
    twin = PeriodicCode(code.word)
    assert code.orbit() is code.orbit()
    assert code == twin and hash(code) == hash(twin) and repr(code) == repr(twin)

    real = geotype.shift.min_rotation
    calls = []

    def counting(word):
        calls.append(tuple(word))
        return real(word)

    monkeypatch.setattr(geotype.shift, "min_rotation", counting)
    twin.orbit()
    per_build = len(calls)
    fresh = [PeriodicCode(w.word) for w in W]
    calls.clear()
    s_refine(T, fresh)
    oracle_s_refine(T, fresh)
    assert per_build == 1 and len(calls) == len(fresh)


def test_svg_emission(e2):
    svg = model_svg(e2, [W12])
    assert svg == model_svg(e2, [W12])
    assert svg.startswith("<svg")
    assert "(0,1.2)" in svg and "(1,1.2)" in svg
    assert svg.count("<rect") == 2
