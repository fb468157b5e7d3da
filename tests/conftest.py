"""Shared worked examples, corpus generators and hypothesis strategies."""

from __future__ import annotations

import random
from functools import cached_property

import pytest
from hypothesis import strategies as st

from geotype import (
    GeometricType,
    PeriodicCode,
    SULabel,
    bin_refine,
    enumerate_orbits,
    incidence_matrix,
    is_mixing,
    per_s_codes,
)


def make_e0() -> GeometricType:
    return GeometricType.build((1,), (1,), {(1, 1): (1, 1, 1)})


def make_e1() -> GeometricType:
    return GeometricType.build((2,), (2,), {(1, 1): (1, 1, 1), (1, 2): (1, 2, 1)})


def make_e1m() -> GeometricType:
    # E1 with the orientation of the upper strip flipped
    return GeometricType.build((2,), (2,), {(1, 1): (1, 1, 1), (1, 2): (1, 2, -1)})


def make_e2() -> GeometricType:
    return GeometricType.build(
        (2, 2),
        (2, 2),
        {
            (1, 1): (1, 1, 1),
            (1, 2): (2, 1, 1),
            (2, 1): (1, 2, 1),
            (2, 2): (2, 2, 1),
        },
    )


def make_e3() -> GeometricType:
    return GeometricType.build(
        (3, 1, 1, 3),
        (2, 2, 2, 2),
        {
            (1, 1): (1, 1, 1),
            (1, 2): (2, 1, 1),
            (1, 3): (3, 1, 1),
            (2, 1): (4, 1, 1),
            (3, 1): (1, 2, 1),
            (4, 1): (2, 2, 1),
            (4, 2): (3, 2, 1),
            (4, 3): (4, 2, 1),
        },
    )


@pytest.fixture
def e0() -> GeometricType:
    return make_e0()


@pytest.fixture
def e1() -> GeometricType:
    return make_e1()


@pytest.fixture
def e1m() -> GeometricType:
    return make_e1m()


@pytest.fixture
def e2() -> GeometricType:
    return make_e2()


@pytest.fixture
def e3() -> GeometricType:
    return make_e3()


# Type files that once ended in a traceback, not a ParseError: an h too large
# to allocate its map slots, and integers longer than the default limit of
# 4300 digits on int() of a string.  The long runs are built here, so where
# the interpreter has no such limit the same lines fail a range check.
_LONG = "1" * 5000
UNUSABLE_INTEGER_FILES = {
    "huge-h": "GEOTYPE 1\nn=1\nh=10000000000000000000\nv=1\nmap (1,1)->(1,1) +\n",
    "long-n": f"GEOTYPE 1\nn={_LONG}\nh=1\nv=1\nmap (1,1)->(1,1) +\n",
    "long-map-index": f"GEOTYPE 1\nn=1\nh=1\nv=1\nmap ({_LONG},1)->(1,1) +\n",
}


# -- random corpora -------------------------------------------------------------


def random_valid_type(rng: random.Random, max_n: int = 5, max_hv: int = 4) -> GeometricType:
    n = rng.randint(1, max_n)
    h = [rng.randint(1, max_hv) for _ in range(n)]
    total = sum(h)
    v = [1] * n
    remaining = total - n
    while remaining > 0:
        idx = rng.randrange(n)
        if v[idx] < max_hv:
            v[idx] += 1
            remaining -= 1
    targets = [(k, l) for k in range(1, n + 1) for l in range(1, v[k - 1] + 1)]
    rng.shuffle(targets)
    mapping = {}
    pos = 0
    for i in range(1, n + 1):
        for j in range(1, h[i - 1] + 1):
            k, l = targets[pos]
            pos += 1
            mapping[(i, j)] = (k, l, rng.choice((1, -1)))
    return GeometricType.build(tuple(h), tuple(v), mapping)


def random_corpus(seed: int, count: int, max_n: int = 5, max_hv: int = 4) -> list[GeometricType]:
    rng = random.Random(seed)
    return [random_valid_type(rng, max_n, max_hv) for _ in range(count)]


def binary_mixing_corpus(seed: int, count: int, max_n: int = 4) -> list[GeometricType]:
    """Small binary mixing types, produced by binary-refining random types."""
    rng = random.Random(seed)
    out: list[GeometricType] = [make_e2(), bin_refine(make_e1m()).refined, make_e3()]
    seen = set(out)
    while len(out) < count:
        T = bin_refine(random_valid_type(rng, max_n=2, max_hv=2)).refined
        if T.n < 2 or T.n > max_n or T in seen:
            continue
        if not is_mixing(incidence_matrix(T)):
            continue
        seen.add(T)
        out.append(T)
    return out


def orientation_reversing_bin_types(seed: int, count: int) -> list[GeometricType]:
    """Small mixing binary refinements of random types with at least one flip."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        T = bin_refine(random_valid_type(rng, max_n=2, max_hv=2)).refined
        if 2 <= T.n <= 4 and -1 in T.eps and is_mixing(incidence_matrix(T)):
            out.append(T)
    return out


def cutting_families(T: GeometricType, max_period: int = 4, max_total: int = 8):
    """Non-boundary orbit families usable as stable cutting families for T."""
    A = incidence_matrix(T)
    s_orbits = {c.orbit() for c in per_s_codes(T)}
    usable = [o.canonical for o in enumerate_orbits(A, max_period) if o not in s_orbits]
    families: list[list[PeriodicCode]] = [[w] for w in usable]
    for a in range(len(usable)):
        for b in range(a + 1, len(usable)):
            if usable[a].period + usable[b].period <= max_total:
                families.append([usable[a], usable[b]])
    return families


def su_labels(T: GeometricType) -> tuple[SULabel, ...]:
    """The 2n boundary labels: bottom (i, -1) then top (i, +1), rectangle by rectangle."""
    return tuple(SULabel(i, e) for i in range(1, T.n + 1) for e in (-1, 1))


# -- derived facts ---------------------------------------------------------------


def record_builds(monkeypatch, name: str) -> list[tuple[object, int]]:
    """Record (object, size of the result) at every build of a derived fact
    of a type, such as ``GeometricType._gamma``; a fact with no size, such
    as the flag ``GeometricType._binary``, is recorded as its value.

    The wrapper keeps the member's descriptor kind: a cached member is built
    once per object, and one that is not cached is recorded at every access.
    """
    member = vars(GeometricType)[name]
    cached = isinstance(member, cached_property)
    build = member.func if cached else member.fget
    builds: list[tuple[object, int]] = []

    def recording(obj):
        result = build(obj)
        builds.append((obj, len(result) if hasattr(result, "__len__") else result))
        return result

    wrapper = type(member)(recording)
    if cached:
        wrapper.__set_name__(GeometricType, name)
    monkeypatch.setattr(GeometricType, name, wrapper)
    return builds


# -- hypothesis -----------------------------------------------------------------


@st.composite
def valid_types(draw, max_n: int = 4, max_hv: int = 3) -> GeometricType:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_valid_type(random.Random(seed), max_n, max_hv)
