"""Guards and derived facts: every public entry point rejects an invalid type,
facts derived from a type are computed once per object, and the library
states its invariants as checks that ``python -O`` keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import geotype
from geotype import (
    EventuallyPeriodicCode,
    GeometricType,
    InvalidTypeError,
    NonBinaryError,
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
    per_s_codes,
    per_u_codes,
    realize,
    s_boundary_positive_code,
    s_refine,
    u_boundary_negative_code,
    u_refine,
    upsilon_step,
    validate,
    wp_refine,
)
from geotype.boundary import boundary_report

from conftest import make_e1, make_e1m, make_e2, make_e3

SOURCES = Path(geotype.__file__).parent


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
    assert T == fresh and hash(T) == hash(fresh) and repr(T) == repr(fresh)
    assert invert(invert(T)) == T


def test_wp_refine_validates_each_type_object_at_most_once(monkeypatch):
    checked: list[GeometricType] = []  # holding the objects keeps their ids unique
    real_check = geotype.core._check_invariants

    def counting_check(T):
        checked.append(T)
        return real_check(T)

    monkeypatch.setattr(geotype.core, "_check_invariants", counting_check)
    wp_refine(make_e2(), 3)
    assert checked
    assert len({id(T) for T in checked}) == len(checked)


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
    ``refine``, so that the two stay independent checks of each other."""
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


def test_s_refine_builds_no_matrix_larger_than_its_source(monkeypatch):
    """The binary guards read (i, xi) pairs and a family's admissibility is
    read off the branch table, so refining bin(E1m) along every non-boundary
    orbit of period <= 8 builds no dense incidence matrix on the stable side,
    the unstable side or in the oracle.  ``wp_refine`` builds one, the input
    of ``enumerate_orbits``."""
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
    assert sizes == []
    wp_refine(make_e2(), 6)
    assert sizes == [2]


def test_s_refine_rejects_a_non_binary_type():
    with pytest.raises(NonBinaryError):
        s_refine(make_e1(), [])
