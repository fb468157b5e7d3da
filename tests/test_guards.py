"""Guards and derived facts: every public entry point rejects an invalid type,
facts derived from a type are computed once per object, and the library
states its invariants as checks that ``python -O`` keeps."""

from __future__ import annotations

import ast
from itertools import chain
from pathlib import Path

import pytest

import geotype
from geotype import (
    AdmissibilityError,
    CodeOrbit,
    DuplicateOrbitError,
    EventuallyPeriodicCode,
    GeometricType,
    InvalidTypeError,
    NonBinaryError,
    PeriodicCode,
    SULabel,
    VLabel,
    bin_refine,
    boundary_orbits,
    boundary_sets,
    build_order,
    classify_code,
    corner_refine,
    corner_refine_along,
    enumerate_orbits,
    gamma_step,
    incidence_matrix,
    invert,
    model_svg,
    oracle_s_refine,
    parse,
    per_s_codes,
    per_u_codes,
    realize,
    s_boundary_positive_code,
    s_refine,
    serialize,
    u_boundary_negative_code,
    u_refine,
    upsilon_step,
    validate,
    wp_refine,
)
from geotype.boundary import boundary_report, cutting_family
from geotype.cli import main
from geotype.core import _branch_keys, _step_keys
from geotype.shift import binary_branches, is_binary, parse_codes, require_binary

from conftest import (
    binary_mixing_corpus,
    make_e1,
    make_e1m,
    make_e2,
    make_e3,
    orientation_reversing_bin_types,
    random_corpus,
    record_builds,
)

SOURCES = Path(geotype.__file__).parent
GOLDEN = Path(__file__).parent / "golden"


def broken() -> GeometricType:
    """Σh ≠ Σv and rho is not injective."""
    return GeometricType((2,), (1,), (VLabel(1, 1), VLabel(1, 1)), (1, 1))


EDGE = SULabel(1, -1)

GUARDED = [
    (invert, ()),
    (incidence_matrix, ()),
    (bin_refine, ()),
    (gamma_step, (EDGE,)),
    (upsilon_step, (EDGE,)),
    (s_boundary_positive_code, (EDGE,)),
    (u_boundary_negative_code, (EDGE,)),
    (per_s_codes, ()),
    (per_u_codes, ()),
    (boundary_orbits, ()),
    (boundary_sets, ()),
    (classify_code, (EventuallyPeriodicCode((1,), (), (1,)),)),
    (boundary_report, ()),
    (build_order, ([],)),
    (s_refine, ([],)),
    (u_refine, ([],)),
    (corner_refine, ()),
    (corner_refine_along, ([],)),
    (wp_refine, (1,)),
    (realize, ()),
    (oracle_s_refine, ([],)),
    (model_svg, ()),
]


@pytest.mark.parametrize("fn, args", GUARDED, ids=[fn.__name__ for fn, _ in GUARDED])
def test_public_entry_points_reject_invalid_types(fn, args):
    with pytest.raises(InvalidTypeError):
        fn(broken(), *args)


def test_cached_facts_stay_out_of_eq_hash_and_repr():
    T = make_e3()
    fresh = make_e3()
    validate(T)
    T.lex_index((4, 3))
    assert invert(T) is invert(T)
    assert binary_branches(T) is binary_branches(T)
    gamma_step(T, EDGE)
    assert "_branches" in vars(T) and "_gamma" in vars(T)
    assert T == fresh and hash(T) == hash(fresh) and repr(T) == repr(fresh)
    assert invert(invert(T)) == T


def test_wp_refine_validates_each_type_object_at_most_once(monkeypatch):
    """Validation, the binary fact, the branch table, the gamma table and
    the walk of each side's boundary cycles into key words are each made at
    most once per type object over a whole pipeline and the oracle's checks
    of its two stable stages."""
    checked: list[GeometricType] = []  # holding the objects keeps their ids unique
    real_check = geotype.core._check_invariants

    def counting_check(T):
        checked.append(T)
        return real_check(T)

    walks: list[tuple[GeometricType, bool]] = []
    real_walk = geotype.boundary._cycle_words

    def counting_walk(T, unstable):
        walks.append((T, unstable))
        return real_walk(T, unstable)

    monkeypatch.setattr(geotype.core, "_check_invariants", counting_check)
    monkeypatch.setattr(geotype.boundary, "_cycle_words", counting_walk)
    branch_builds = record_builds(monkeypatch, "_branches")
    binary_builds = record_builds(monkeypatch, "_binary")
    gamma_builds = record_builds(monkeypatch, "_gamma")
    result = wp_refine(make_e2(), 6)
    for stage in result.stages[:2]:
        assert stage.kind == "s"
        oracle_s_refine(stage.source, stage.order.family)
    assert checked and branch_builds and binary_builds and gamma_builds and walks
    assert len({id(T) for T in checked}) == len(checked)
    for builds in (branch_builds, binary_builds, gamma_builds):
        assert len({id(T) for T, _ in builds}) == len(builds)
    assert len({(id(T), unstable) for T, unstable in walks}) == len(walks)


def test_wp_refine_builds_only_the_enumerated_orbits(monkeypatch):
    """Each side's boundary is kept as key words: the family checks compare
    key words, and the transport keys its recodes and flanks by their least
    rotations.  So the only orbit objects that wp_refine(E2, 6) builds are
    the 23 that ``enumerate_orbits`` returns, in its order."""
    built: list[tuple[int, ...]] = []
    real = CodeOrbit._of.__func__

    def counting(cls, canonical):
        built.append(canonical.word)
        return real(cls, canonical)

    monkeypatch.setattr(CodeOrbit, "_of", classmethod(counting))
    wp_refine(make_e2(), 6)
    during = list(built)
    orbits = enumerate_orbits(incidence_matrix(make_e2()), 6)
    assert len(orbits) == 23
    assert during == [o.canonical.word for o in orbits]


def test_a_failed_unstable_family_check_builds_no_branch_table_on_t(monkeypatch):
    """A failed unstable family check walks its codes one by one on the
    table and time-reversed words of the one-pass check, so it builds a
    branch table on invert(T) only, never on T, and still names each code
    in forward time: an orbit listed twice (``chiral_twice.codes`` on E2,
    whose error is the golden ``urefine_E2_chiral_twice.err``) and a code
    that E3 does not admit."""
    twice = parse_codes((GOLDEN / "chiral_twice.codes").read_text())
    failing = (
        (make_e2, twice, DuplicateOrbitError, (GOLDEN / "urefine_E2_chiral_twice.err").read_text()),
        (make_e3, [PeriodicCode((1, 1, 2))], AdmissibilityError,
         "AdmissibilityError: code 1 1 2 is not admissible for this type\n"),
    )
    builds = record_builds(monkeypatch, "_branches")
    for make, W, error, text in failing:
        for check in (lambda T: cutting_family(T, W, unstable=True), lambda T: u_refine(T, W)):
            T = make()
            builds.clear()
            with pytest.raises(error) as raised:
                check(T)
            assert f"{error.__name__}: {raised.value}\n" == text
            assert [obj for obj, _ in builds] == [invert(T)]
            assert builds[0][0] is invert(T) and "_branches" not in vars(T)


def test_no_recode_packs_a_key(monkeypatch):
    """A recode places every code by its steps alone, by bisecting the
    cut marks of band assembly, so it packs no kneading key, neither its
    own nor the family's: kneading keys are packed only to sort the cuts.
    bin(E1m) cut along every non-boundary orbit of period <= 10; every
    pointed code of period <= 6, and every phase of 40 family codes, each
    of which yields its two flanks."""
    T = bin_refine(make_e1m()).refined
    boundary = {c.orbit() for c in per_s_codes(T)}
    orbits = enumerate_orbits(incidence_matrix(T), 10)
    family = [o.canonical for o in orbits if o not in boundary]
    result = s_refine(T, family)
    assert len(family) == 225 and sum(map(len, result.order.cuts)) == 1965
    codes = [code for o in orbits if o.period <= 6 for code in o.phases()]
    phases = [w.rotate(t) for w in family[:40] for t in range(w.period)]
    packed: list[tuple] = []
    real = geotype.refine._pack_keys

    def counting(*args):
        packed.append(args)
        return real(*args)

    monkeypatch.setattr(geotype.refine, "_pack_keys", counting)
    assert all(result.recode(code) for code in codes)
    assert all(len(result.recode(code)) == 2 for code in phases)
    assert packed == [] and len(phases) > 200


def test_each_stable_walk_looks_each_step_up_once(monkeypatch):
    """The family check looks every step of the family up in the branch
    table once, and the order table keeps the values it found as its step
    column, which the kneading keys and the cut marks read.  On bin(E1m)
    cut along every non-boundary orbit of period <= 10 of a side,
    ``s_refine`` makes one pass of branch-table keys over the family's
    steps, and ``u_refine`` one over the reversed family's, on the
    inverse.  Every recode makes exactly one pass, over its own steps,
    whether or not its code lies on a family orbit."""
    T = bin_refine(make_e1m()).refined
    orbits = enumerate_orbits(incidence_matrix(T), 10)
    passes: list[tuple[int, ...]] = []
    real = geotype.core._branch_keys

    def counting(n, rows, targets):
        rows = tuple(rows)
        passes.append(rows)
        return real(n, rows, targets)

    monkeypatch.setattr(geotype.boundary, "_branch_keys", counting)
    monkeypatch.setattr(geotype.refine, "_branch_keys", counting)
    for unstable in (False, True):
        boundary = boundary_orbits(T, unstable=unstable)
        family = [o.canonical for o in orbits if o not in boundary]
        words = tuple(chain.from_iterable(code.word for code in family))
        passes.clear()
        (u_refine if unstable else s_refine)(T, family)
        if unstable:
            reversed_words = chain.from_iterable(code.reversed_pointed().word for code in family)
            assert passes == [tuple(reversed_words)]
        else:
            assert len(family) == 225 and passes == [words]
    boundary = boundary_orbits(T)
    family = [o.canonical for o in orbits if o not in boundary]
    result = s_refine(T, family)
    longer = [o for o in enumerate_orbits(incidence_matrix(T), 12) if o.period > 10]
    outside = [code for o in [*boundary, *longer[::40]] for code in o.phases()]
    for code in outside:
        passes.clear()
        assert len(result.recode(code)) == 1
        assert passes == [code.word], code
    for code in (w.rotate(t) for w in family for t in range(w.period)):
        passes.clear()
        assert len(result.recode(code)) == 2
        assert passes == [code.word], code
    assert len(outside) >= 100


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}"


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_what_it_uses(path):
    """The unused-import lint, as a test: every imported name is used, except
    in ``__init__`` (the package's API) and in the re-export form
    ``import X as X``.  ``oracle`` imports nothing from the formula engine in
    ``refine``, so that the two stay independent checks of each other, and
    no module imports from the test suite or its pairwise reference order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = node.module or ""
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        tested = [t for t in targets if {"tests", "reference", "conftest"} & set(t.split("."))]
        assert tested == [], f"{path.name} imports {tested} at line {node.lineno}"
        if path.name == "oracle.py":
            refine = [t for t in targets if "refine" in t.split(".")]
            assert refine == [], f"oracle.py imports {refine} at line {node.lineno}"
        for alias in node.names:
            if alias.asname != alias.name:
                imported.add((alias.asname or alias.name).split(".")[0])
    if path.name == "__init__.py":
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert unused == [], f"{path.name} imports unused names {unused}"


def _unchecked_constructor_sites(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(innermost enclosing function, line) of every reference to ``_of``,
    as an attribute or as a string for ``getattr``."""
    sites: list[tuple[str | None, int]] = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "_of") or (
            isinstance(node, ast.Constant) and node.value == "_of"
        ):
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda p: p.name)
def test_unchecked_code_constructors_stay_in_shift(path):
    """``PeriodicCode._of`` and ``CodeOrbit._of`` check nothing, so they are
    referenced only in ``shift``, on words primitive by construction, and in
    ``RefinementResult._recode_s``, on primitive roots: no parse path or
    user-facing entry point reaches them."""
    if path.name == "shift.py":
        return
    allowed = {"_recode_s"} if path.name == "refine.py" else set()
    sites = _unchecked_constructor_sites(ast.parse(path.read_text(encoding="utf-8")))
    stray = [line for func, line in sites if func not in allowed]
    assert stray == [], f"{path.name} references an unchecked constructor at lines {stray}"


def test_pairwise_reference_order_is_not_exported():
    """The paper's pairwise formulas live in the tests' reference module."""
    moved = {"ShiftEqualError", "interchange_delta", "interval_less", "j_index", "mismatch_M"}
    assert moved.isdisjoint(geotype.__all__)
    assert all(not hasattr(geotype.refine, name) for name in moved | {"_kneading_key"})
    assert not hasattr(geotype.OrderTable, "position")
    assert not hasattr(geotype.OrderTable, "positions")


def test_trimmed_names_stay_out_of_the_library():
    """``classify_code`` is the one admissibility check of an eventually
    periodic code, the boundary labels live in ``boundary``, the canonical
    tail form lives in the tests' reference module, the affine model is
    its integer columns, with no per-strip view, and a recode lifts every
    code through the order table by one rule: the table's views by cut id
    and by row and its cut counts live in the reference module, no phase
    index, kneading key of a recoded code or kept family key is left, and
    the cut marks of band assembly are the one column that places a cut
    line, for assembly and recode alike.  Only tests read a result's band
    lookup ``r_of``, now a reference function, or the corner codes of
    ``BoundarySets``, ``s_codes & u_codes``.  Each side's boundary is kept
    as one set of key words, read through one getter, and every orbit is
    keyed by ``shift._orbit_key`` or, when primitive by construction, by
    ``min_rotation`` alone."""
    gone = {
        geotype.shift: {"is_admissible_eventually_periodic"},
        geotype.boundary: {
            "canonical_eventually_periodic", "_kept_side", "_keep_side", "_key_word", "_cycle_orbits",
        },
        geotype.refine: {
            "BoundaryCodeError", "DuplicateOrbitError", "_orbit_keys", "_ranks",
            "_cut_offsets", "_successor_ranks", "_orbit_reps", "_flank_orbits",
        },
        geotype.core: {"SULabel", "theta"},
        geotype.GeometricType: {"_max_h", "_boundary_orbits"},
        geotype.CodeOrbit: {"_of_cycle", "_of_primitive"},
        geotype.oracle: {"StripMap", "HLabel", "VLabel"},
        geotype.AffineModel: {"maps", "strip_map", "branch", "extract_type", "_branch_index"},
        geotype.OrderTable: {"pair", "refs", "count", "n"},
        geotype.RefinementResult: {
            "_phase_cuts", "_cut_ranks", "_kept_keys", "_family_keys", "_row_columns", "r_of",
        },
        geotype.BoundarySets: {"c_codes"},
    }
    for module, names in gone.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__
    table = geotype.build_order(make_e2(), [PeriodicCode((1, 2))])
    assert [name for name in ("count", "n") if hasattr(table, name)] == []
    assert not hasattr(geotype.BoundaryOrbitSummary, "canonical_tail")
    assert geotype.SULabel is geotype.boundary.SULabel
    assert geotype.theta is geotype.boundary.theta


def test_s_refine_builds_no_matrix_larger_than_its_source(monkeypatch):
    """The binary guards read (i, xi) pairs and a code's admissibility is
    read off the branch table, so refining bin(E1m) along every non-boundary
    orbit of period <= 8 builds no incidence matrix on the stable side, the
    unstable side or in the oracle, and neither do ``classify_code`` and
    ``boundary_report``.  ``wp_refine`` builds a single sparse graph, the
    input of ``enumerate_orbits``."""
    sizes: list[int] = []
    real_incidence = geotype.shift.incidence_matrix

    def recording_incidence(T):
        sizes.append(T.n)
        return real_incidence(T)

    for module in (geotype.shift, geotype.boundary, geotype.refine, geotype.oracle):
        if hasattr(module, "incidence_matrix"):
            monkeypatch.setattr(module, "incidence_matrix", recording_incidence)
    T = bin_refine(make_e1m()).refined
    boundary = {c.orbit() for c in per_s_codes(T)}
    family = [o.canonical for o in enumerate_orbits(real_incidence(T), 8) if o not in boundary]
    result = s_refine(T, family)
    assert result.refined.n > 100 * T.n
    u_boundary = {c.orbit() for c in per_u_codes(T)}
    u_refine(T, [w for w in family if w.orbit() not in u_boundary])
    oracle_s_refine(T, family)
    classify_code(T, EventuallyPeriodicCode(family[0].word, (), family[0].word))
    boundary_report(T)
    assert sizes == []
    wp_refine(make_e2(), 6)
    assert sizes == [2]


def test_binary_fact_matches_the_incidence_matrix():
    """On the seeded corpora, binary and not: the step keys written from the
    columns are those of the label walk; the binary fact read off them with
    no table, and the one read off a kept table, both equal
    ``is_binary(incidence_matrix(T))``; and both guards raise
    ``NonBinaryError`` exactly when it is false."""
    types = random_corpus(seed=29, count=40) + random_corpus(seed=31, count=10, max_n=8, max_hv=6)
    types += binary_mixing_corpus(seed=37, count=8) + orientation_reversing_bin_types(41, 6)
    seen = set()
    for T in types:
        binary = is_binary(incidence_matrix(T))
        seen.add(binary)
        rows, ks = [i for i, _ in T.h_labels()], [k for k, _ in T.rho]
        assert list(_step_keys(T)) == list(_branch_keys(T.n, rows, ks))
        assert T._binary is binary and "_branches" not in vars(T)
        twin = parse(serialize(T))
        if binary:
            require_binary(T)
            assert len(binary_branches(twin)) == sum(T.h)
        else:
            for guard, U in ((require_binary, T), (binary_branches, twin)):
                with pytest.raises(NonBinaryError, match="incidence matrix is not binary"):
                    guard(U)
        assert "_branches" in vars(twin) and twin._binary is binary
    assert seen == {False, True}


@pytest.mark.parametrize("guard", [require_binary, binary_branches])
def test_binary_guards_check_validity_first(guard):
    """``broken()`` is invalid and has two strips of rectangle 1 in
    rectangle 1: the guard raises ``InvalidTypeError`` and derives no binary
    fact and no table."""
    T = broken()
    with pytest.raises(InvalidTypeError):
        guard(T)
    assert "_binary" not in vars(T) and "_branches" not in vars(T)


def test_refinements_keep_no_branch_table_on_their_output(monkeypatch):
    """``s_refine`` builds no branch table on its result and ``u_refine``
    none on its inner type: their postcondition reads the binary fact.  The
    tables built are those of the source and its inverse, which the key
    walks read."""
    T = bin_refine(make_e1m()).refined
    family = [o.canonical for o in enumerate_orbits(incidence_matrix(T), 6)]
    builds = record_builds(monkeypatch, "_branches")
    s_result = s_refine(T, family, drop_boundary=True)
    u_result = u_refine(T, family, drop_boundary=True)
    inner = u_result.stages[0].refined
    assert s_result.refined.n > T.n and inner.n > T.n
    assert sorted(map(id, (T, invert(T)))) == sorted(id(U) for U, _ in builds)
    for U in (s_result.refined, inner):
        assert U._binary is True and "_branches" not in vars(U)


def _corrupt_blocks(monkeypatch, clean: GeometricType, corrupt: str) -> None:
    """Patch ``refine._blocks`` to write one slot of the refined type wrong.

    Strips 0 and 1 form the first band of ``clean``'s rectangle 1 and run
    into different rectangles.  "merge" swaps strip 1's slot with that of a
    later strip z into strip 0's rectangle, so both strips of the band run
    into one rectangle: a valid type, not binary.  "repeat" gives strip 1
    strip 0's slot: rho is not injective."""
    ks = [k for k, _ in clean.rho]
    assert clean.h[0] >= 2 and ks[0] != ks[1]
    z = next(z for z in range(clean.h[0], len(ks)) if ks[z] == ks[0])
    real = geotype.refine._blocks

    def corrupted(T, tops):
        sizes, v, slots, eps = real(T, tops)
        slots = list(slots)
        if corrupt == "merge":
            slots[1], slots[z] = slots[z], slots[1]
        else:
            slots[1] = slots[0]
        return sizes, v, tuple(slots), eps

    monkeypatch.setattr(geotype.refine, "_blocks", corrupted)


@pytest.mark.parametrize("side", ["s", "u"])
@pytest.mark.parametrize(
    "corrupt, error, message",
    [
        ("merge", NonBinaryError, "incidence matrix is not binary"),
        ("repeat", InvalidTypeError, r"invalid geometric type: rho not injective: rho\(1,1\) = rho\(1,2\)"),
    ],
)
def test_assemble_rejects_a_corrupted_output(monkeypatch, side, corrupt, error, message):
    """The postcondition of ``_assemble`` on E2 cut along (1 2), stable and
    unstable (the inner assembly on the inverse type)."""
    W12 = [PeriodicCode((1, 2))]
    refine = s_refine if side == "s" else u_refine
    clean = refine(make_e2(), W12)
    _corrupt_blocks(monkeypatch, clean.refined if side == "s" else clean.stages[0].refined, corrupt)
    with pytest.raises(error, match=message):
        refine(make_e2(), W12)


def test_s_refine_rejects_a_non_binary_type():
    with pytest.raises(NonBinaryError):
        s_refine(make_e1(), [])


def test_library_builds_no_type_from_a_label_map(monkeypatch, capsys):
    """Every library builder writes slots and eps in lexicographic order and
    constructs the type from those sequences; ``GeometricType.build`` is the
    convenience for callers holding a label-keyed map, and the public
    constructor the one for callers holding rho.  The library calls neither."""
    e1m = make_e1m()  # built through build() before the count starts
    calls: list[tuple] = []
    build = GeometricType.build.__func__
    public = GeometricType.__init__

    def counting_build(cls, *args, **kwargs):
        calls.append(args)
        return build(cls, *args, **kwargs)

    def counting_init(self, *args):
        calls.append(args)
        public(self, *args)

    monkeypatch.setattr(GeometricType, "build", classmethod(counting_build))
    monkeypatch.setattr(GeometricType, "__init__", counting_init)
    golden = Path(__file__).parent / "golden"
    e1, e2, e3 = (parse((golden / f"{name}.gt").read_text()) for name in ("E1", "E2", "E3"))
    for T in (e1, e2, e3, e1m):
        invert(T)
        bin_refine(T)
        realize(T)
    T = bin_refine(e1m).refined
    boundary = {c.orbit() for c in per_s_codes(T)}
    family = [o.canonical for o in enumerate_orbits(incidence_matrix(T), 4) if o not in boundary]
    u_boundary = {c.orbit() for c in per_u_codes(T)}
    s_refine(T, family)
    u_refine(T, [w for w in family if w.orbit() not in u_boundary])
    oracle_s_refine(T, family)
    w12 = [PeriodicCode((1, 2))]
    s_refine(e2, w12)
    u_refine(e2, w12)
    oracle_s_refine(e2, w12)
    corner_refine(e3)
    wp_refine(e2, 3)
    type_path, codes_path = str(golden / "E2.gt"), str(golden / "W12.codes")
    for argv in (
        ["validate", type_path],
        ["invert", type_path],
        ["alpha", type_path],
        ["incidence", type_path, "--check", "mixing"],
        ["orbits", type_path, "--max-period", "3"],
        ["bin", str(golden / "E1.gt")],
        ["codes", type_path],
        ["srefine", type_path, "--codes", codes_path],
        ["urefine", type_path, "--codes", codes_path],
        ["corner", str(golden / "E3.gt")],
        ["corner", type_path, "--along", codes_path],
        ["wp", type_path, "--max-period", "3"],
        ["oracle-check", type_path, "--codes", codes_path],
        ["render", type_path, "--format", "svg", "--codes", codes_path],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []
