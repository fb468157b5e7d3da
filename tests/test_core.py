"""Geometric type construction, validation, inversion, and the text format."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from geotype import (
    GeometricType,
    HLabel,
    InvalidTypeError,
    ParseError,
    VLabel,
    alpha,
    bin_refine,
    invert,
    parse,
    serialize,
    validate,
)

from conftest import UNUSABLE_INTEGER_FILES, make_e2, random_corpus, valid_types

GOLDEN = Path(__file__).parent / "golden"


def test_validate_identity_permutation(e1):
    assert validate(e1).ok


def test_validate_reports_count_and_injectivity_violations():
    broken = GeometricType.build(
        (2,), (1,), {(1, 1): (1, 1, 1), (1, 2): (1, 1, 1)}
    )
    report = validate(broken)
    assert not report.ok
    text = " ".join(report.violations)
    assert "Σh ≠ Σv" in text
    assert "rho not injective" in text


@pytest.mark.parametrize(
    "h, v, rho, eps, violations",
    [
        ((0, 2), (1, 1), ((1, 1), (2, 1)), (1, -1), ("h_i < 1 for rectangles [1]",)),
        ((1, 1), (2, 0), ((1, 1), (1, 2)), (1, 1), ("v_i < 1 for rectangles [2]",)),
        (
            (0, 1, 2), (2, 1, 0), ((1, 2), (2, 1), (1, 1)), (1, 1, 1),
            ("h_i < 1 for rectangles [1]", "v_i < 1 for rectangles [3]"),
        ),
        (
            (2, 1), (1, 1), ((1, 1), (2, 1), (1, 1)), (1, 1, 1),
            ("Σh ≠ Σv (3 ≠ 2)", "rho not injective: rho(1,1) = rho(2,1) = (1,1)"),
        ),
        (
            (2, 2), (2, 2), ((1, 1), (2, 2), (1, 1), (2, 2)), (1, 1, -1, 1),
            ("rho not injective: rho(1,1) = rho(2,1) = (1,1); rho(1,2) = rho(2,2) = (2,2)",),
        ),
        (
            (1, 1), (2, 2), ((1, 2), (2, 1)), (1, -1),
            (
                "Σh ≠ Σv (2 ≠ 4)",
                "rho not surjective: unreached vertical labels"
                " [VLabel(k=1, l=1), VLabel(k=2, l=2)]",
            ),
        ),
    ],
    ids=["zero-h", "zero-v", "zero-h-and-v", "sums", "not-injective", "not-surjective"],
)
def test_validation_report_text(h, v, rho, eps, violations):
    """The exact messages of the label-by-label scan of an invalid type."""
    report = validate(GeometricType(h, v, rho, eps))
    assert (report.ok, report.violations) == (False, violations)


@pytest.mark.parametrize("extra", [9, 10, 11, 25])
def test_validation_report_names_at_most_ten_unreached_labels(extra):
    """Past ten unreached vertical labels the report names the first ten and
    counts the rest."""
    T = GeometricType((1, 1), (1, 1 + extra), ((2, 1), (1, 1)), (1, 1))
    missing = [VLabel(2, l) for l in range(2, 2 + extra)]
    more = f" and {extra - 10} more" if extra > 10 else ""
    text = f"rho not surjective: unreached vertical labels {missing[:10]}{more}"
    assert validate(T).violations == (f"Σh ≠ Σv (2 ≠ {2 + extra})", text)


def test_validation_report_of_a_huge_v_is_bounded():
    """A v far past alpha costs a scan of alpha + 10 labels, not of v."""
    report = validate(GeometricType((1,), (10**20,), ((1, 1),), (1,)))
    missing = [VLabel(1, l) for l in range(2, 12)]
    assert report.violations == (
        f"Σh ≠ Σv (1 ≠ {10**20})",
        f"rho not surjective: unreached vertical labels {missing} and {10**20 - 11} more",
    )


def test_validate_bin_refined_type(e1):
    assert validate(bin_refine(e1).refined).ok


def test_alpha_examples(e0, e1, e2):
    assert alpha(e1) == 2
    assert alpha(e0) == 1
    assert alpha(e2) == 4


def test_alpha_rejects_invalid():
    broken = GeometricType.build((2,), (1,), {(1, 1): (1, 1, 1), (1, 2): (1, 1, 1)})
    with pytest.raises(InvalidTypeError):
        alpha(broken)


def test_lex_index_examples(e1, e2):
    assert e2.lex_index((1, 1)) == 1
    assert e2.lex_index((2, 1)) == 3
    assert e1.lex_index((1, 2)) == 2


def test_lex_index_out_of_range(e1):
    with pytest.raises(ValueError):
        e1.lex_index((1, 3))
    with pytest.raises(ValueError):
        e1.lex_index((2, 1))


def test_lex_index_bijection_exhaustive():
    for T in random_corpus(seed=11, count=25):
        images = [T.lex_index(label) for label in T.h_labels()]
        assert images == list(range(1, sum(T.h) + 1))
        unindex = {T.lex_index(label): label for label in T.h_labels()}
        assert [unindex[r] for r in range(1, sum(T.h) + 1)] == list(T.h_labels())


def test_invert_examples(e0, e2):
    assert invert(e0) == e0
    inv = invert(e2)
    assert inv.phi((1, 1)) == (1, 1, 1)
    assert inv.phi((2, 1)) == (1, 2, 1)
    assert inv.phi((1, 2)) == (2, 1, 1)
    assert inv.phi((2, 2)) == (2, 2, 1)
    assert invert(inv) == e2


@settings(max_examples=60)
@given(valid_types())
def test_invert_is_involution_and_preserves_alpha(T):
    assert invert(invert(T)) == T
    assert alpha(invert(T)) == alpha(T)


def test_invert_tracks_orientation(e1m):
    E2m = bin_refine(e1m).refined
    inv = invert(E2m)
    for label in E2m.h_labels():
        k, l, e = E2m.phi(label)
        assert inv.phi((k, l)) == (label.i, label.j, e)


# -- text format ------------------------------------------------------------------


def test_serialize_e1_golden(e1):
    assert serialize(e1) == (GOLDEN / "E1.gt").read_text()


def test_parse_canonical_roundtrip(e1, e2):
    assert parse(serialize(e1)) == e1
    text = (GOLDEN / "E2.gt").read_text()
    assert parse(text) == e2
    assert serialize(parse(text)) == text


def test_parse_accepts_unordered_map_lines(e1):
    lines = serialize(e1).splitlines()
    swapped = "\n".join(lines[:4] + [lines[5], lines[4]]) + "\n"
    assert parse(swapped) == e1


def test_parse_duplicate_label():
    text = "GEOTYPE 1\nn=1\nh=2\nv=2\nmap (1,1)->(1,1) +\nmap (1,1)->(1,2) +\n"
    with pytest.raises(ParseError, match="duplicate horizontal label"):
        parse(text)


def test_parse_missing_label():
    text = "GEOTYPE 1\nn=1\nh=2\nv=2\nmap (1,1)->(1,1) +\nmap (1,3)->(1,2) +\n"
    with pytest.raises(ParseError, match="out of range"):
        parse(text)


def test_parse_relabelled_map_line_never_leaves_a_label_unmapped():
    """alpha map lines holding distinct in-range labels cover every label, so
    moving one line's label off its own is a duplicate or out of range."""
    for T in random_corpus(seed=23, count=15):
        lines = serialize(T).splitlines()
        labels = list(T.h_labels())
        outside = [(T.n + 1, 1)] + [(i, T.h[i - 1] + 1) for i in range(1, T.n + 1)]
        for row, (i, j) in enumerate(labels):
            for a, b in [label for label in labels if label != (i, j)] + outside:
                edited = list(lines)
                edited[4 + row] = edited[4 + row].replace(f"map ({i},{j})", f"map ({a},{b})", 1)
                with pytest.raises(ParseError, match="duplicate horizontal label|out of range"):
                    parse("\n".join(edited) + "\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("GEOTYPE 2\nn=1\nh=1\nv=1\nmap (1,1)->(1,1) +\n", "header"),
        ("GEOTYPE 1\nn=x\nh=1\nv=1\nmap (1,1)->(1,1) +\n", "line 2"),
        ("GEOTYPE 1\nn=1\nh=1,2\nv=1\nmap (1,1)->(1,1) +\n", "expected 1 entries"),
        ("GEOTYPE 1\nn=1\nh=1\nv=1\nmap (1,1)->(1,2) +\n", "vertical label"),
        ("GEOTYPE 1\nn=1\nh=1\nv=1\nmap (1,1)=(1,1) +\n", "malformed map line"),
        ("GEOTYPE 1\nn=1\nh=1\nv=1\n", "expected 1 map lines"),
    ],
)
def test_parse_rejects_malformed(text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


@pytest.mark.parametrize("name", sorted(UNUSABLE_INTEGER_FILES))
def test_parse_rejects_unusable_integers(name):
    """The map-line count is checked before Σh slots are allocated, and an
    integer too long to convert is a ParseError that names its line."""
    with pytest.raises(ParseError, match=r"^line [25]: "):
        parse(UNUSABLE_INTEGER_FILES[name])


def test_roundtrip_on_corpus():
    for T in random_corpus(seed=23, count=40):
        assert parse(serialize(T)) == T


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GeometricType.build((1,), (1,), {(1, 1): (1, 2, 1)})
    with pytest.raises(ValueError):
        GeometricType.build((1,), (1,), {(1, 1): (1, 1, 2)})
    with pytest.raises(ValueError):
        GeometricType.build((1,), (1,), {(1, 1): (1, 1, 1), (1, 2): (1, 1, 1)})


def test_construction_stores_a_tuple_of_vlabels():
    """Plain pairs, lists and ``VLabel``s all give the same stored tuple of
    ``VLabel``s; a tuple of ``VLabel``s is kept as it is."""
    e2 = make_e2()
    pairs = ((1, 1), (2, 1), (1, 2), (2, 2))
    labels = tuple(VLabel(k, l) for k, l in pairs)
    for rho in (pairs, [list(t) for t in pairs], list(labels), labels):
        T = GeometricType((2, 2), (2, 2), rho, (1, 1, 1, 1))
        assert type(T.rho) is tuple and all(type(t) is VLabel for t in T.rho)
        assert T == e2 and hash(T) == hash(e2) and repr(T) == repr(e2)
    assert GeometricType((2, 2), (2, 2), labels, (1, 1, 1, 1)).rho is labels


def test_list_built_type_equals_its_tuple_twin():
    """h, v and eps given as lists are stored as tuples, so the type is
    equal to its tuple-built twin, hashable, and inversion is an involution."""
    e2 = make_e2()
    T = GeometricType([2, 2], [2, 2], [(1, 1), (2, 1), (1, 2), (2, 2)], [1, 1, 1, 1])
    assert all(type(x) is tuple for x in (T.h, T.v, T.rho, T.eps))
    assert T == e2 and hash(T) == hash(e2) and repr(T) == repr(e2)
    assert invert(invert(T)) == T
    h, v, eps = e2.h, e2.v, e2.eps
    U = GeometricType(h, v, e2.rho, eps)
    assert U.h is h and U.v is v and U.eps is eps


@pytest.mark.parametrize(
    "rho, eps, message",
    [
        (((3, 1), (1, 1)), (1, 1), "rho target VLabel(k=3, l=1): rectangle index out of range"),
        (((0, 1), (1, 1)), (1, 1), "rho target VLabel(k=0, l=1): rectangle index out of range"),
        (((1, 3), (1, 1)), (1, 1), "rho target VLabel(k=1, l=3): vertical position out of range"),
        (((1, 0), (1, 1)), (1, 1), "rho target VLabel(k=1, l=0): vertical position out of range"),
        (((1, 2), (1, 1)), (1, 0), "eps entries must be +1 or -1"),
        ((VLabel(1, 2), VLabel(1, 1)), (1, -2), "eps entries must be +1 or -1"),
    ],
)
def test_construction_range_errors(rho, eps, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GeometricType((2,), (2,), rho, eps)


def test_labels_are_tuples(e2):
    assert HLabel(1, 2) == (1, 2)
    assert e2.lex_index((1, 2)) == 2 and list(e2.h_labels())[1] == (1, 2)
