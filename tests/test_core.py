"""Geometric type construction, validation, inversion, and the text format."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

from geotype import (
    GeometricType,
    HLabel,
    InvalidTypeError,
    ParseError,
    alpha,
    bin_refine,
    invert,
    parse,
    serialize,
    validate,
)

from conftest import random_corpus, valid_types

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


def test_labels_are_tuples(e2):
    assert HLabel(1, 2) == (1, 2)
    assert e2.lex_index((1, 2)) == 2 and list(e2.h_labels())[1] == (1, 2)
