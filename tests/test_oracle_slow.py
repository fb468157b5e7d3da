"""The formula engine against the affine oracle, beyond tier-1's sizes.

Seeded mixing binary refinements with up to 8 rectangles, refined along
every non-boundary orbit of period <= P for P = 1..8, and along a random
subfamily at random phases in random order; and bin(E1m) along every
non-boundary orbit of period <= 12 (746 orbits, refined n = 8033) and <= 13
(1376 orbits, 16221 cuts, refined n = 16223); and the two stable stages of
``wp_refine(E2, 12)``.  The suite is marked ``slow``
and deselected by default; run it with
``PYTHONPATH=src python -m pytest -q -m slow``.
"""

from __future__ import annotations

import random

import pytest

from geotype import (
    PeriodicCode,
    bin_refine,
    enumerate_orbits,
    incidence_matrix,
    is_mixing,
    oracle_s_refine,
    per_s_codes,
    s_refine,
    wp_refine,
)

from conftest import make_e1m, make_e2, random_valid_type

pytestmark = pytest.mark.slow

MAX_N = 8
MAX_PERIOD = 8
SEEDS = range(6)


def _mixing_bin_types(seed: int, count: int = 6):
    rng = random.Random(seed)
    types: list = []
    while len(types) < count:
        T = bin_refine(random_valid_type(rng, max_n=3, max_hv=3)).refined
        if 2 <= T.n <= MAX_N and T not in types and is_mixing(incidence_matrix(T)):
            types.append(T)
    return types


def test_corpus_reaches_the_bounds():
    types = [T for seed in SEEDS for T in _mixing_bin_types(seed)]
    assert max(T.n for T in types) == MAX_N
    assert any(-1 in T.eps for T in types)
    assert any(max(T.h) >= 3 for T in types)


@pytest.mark.parametrize("seed", SEEDS)
def test_s_refine_equals_oracle(seed):
    rng = random.Random(seed)
    for T in _mixing_bin_types(seed):
        boundary = {c.orbit() for c in per_s_codes(T)}
        orbits = [
            o.canonical
            for o in enumerate_orbits(incidence_matrix(T), MAX_PERIOD)
            if o not in boundary
        ]
        assert max(c.period for c in orbits) == MAX_PERIOD
        for P in range(1, MAX_PERIOD + 1):
            family = [c for c in orbits if c.period <= P]
            sub = rng.sample(family, len(family) // 2)
            phases = [rng.randrange(c.period) for c in sub]
            rotated = [PeriodicCode(c.word[t:] + c.word[:t]) for c, t in zip(sub, phases)]
            for W in (family, rotated):
                engine, oracle = s_refine(T, W), oracle_s_refine(T, W)
                assert engine.refined == oracle.refined, (T, P)
                assert engine.label_map == oracle.label_map, (T, P)


@pytest.mark.parametrize(
    "period, orbits, cuts", [(12, 746, 8031), (13, 1376, 16221)], ids=["P12", "P13"]
)
def test_s_refine_equals_oracle_on_long_periods(period, orbits, cuts):
    """The benchmark's srefine-oracle family, two and three period steps
    further: every cut line is a band edge, so refined n = cuts + 2."""
    T = bin_refine(make_e1m()).refined
    boundary = {c.orbit() for c in per_s_codes(T)}
    family = [
        o.canonical for o in enumerate_orbits(incidence_matrix(T), period) if o not in boundary
    ]
    engine, oracle = s_refine(T, family), oracle_s_refine(T, family)
    assert (len(family), sum(c.period for c in family)) == (orbits, cuts)
    assert engine.refined.n == cuts + 2
    assert engine.refined == oracle.refined
    assert engine.label_map == oracle.label_map


def test_wp_refine_stable_stages_equal_oracle():
    """Both s-stages of ``wp_refine(E2, 12)``: stage 1 cuts E2 along 8030
    lines, and the corner s-pass runs on the n = 8032 result with an empty
    family.  The u-stage needs an unstable-side oracle (``oracle_u_refine``),
    which the library does not have yet."""
    result = wp_refine(make_e2(), 12)
    stages = [stage for stage in result.stages if stage.kind == "s"]
    assert [stage.source.n for stage in stages] == [2, 8032]
    for stage in stages:
        oracle = oracle_s_refine(stage.source, stage.order.family)
        assert oracle.refined == stage.refined
        assert oracle.label_map == stage.label_map
