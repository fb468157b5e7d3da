"""The formula engine against the affine oracle, beyond tier-1's sizes.

Seeded mixing binary refinements with up to 8 rectangles, refined along
every non-boundary orbit of period <= P for P = 1..8, and along a random
subfamily at random phases in random order.  The suite is marked ``slow``
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
)

from conftest import random_valid_type

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
