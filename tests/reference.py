"""Textbook definitions kept as test references; nothing under
``src/geotype`` imports this module.

The library sorts and recodes cut lines by one kneading key per phase
(``geotype.refine._orbit_keys``).  The formulas here are the paper's
pairwise definitions of that order: the strip index ``j_index``, the
mismatch time ``mismatch_M`` of two shifted codes, the orientation product
``interchange_delta`` before it, and the comparison ``interval_less`` built
on single keys.  Tests check the key sort against them.

The library's symbolic side reads a sparse transition graph.  The dense
matrix arithmetic here is its reference: ``matrix_power``, the trace
``trace_power`` behind ``count_periodic_points``, and the Wielandt scan
``wielandt_is_mixing`` behind ``is_mixing``.
"""

from __future__ import annotations

from math import lcm

from geotype import (
    GeoTypeError,
    GeometricType,
    IncidenceMatrix,
    IntervalRef,
    OrderTable,
    PeriodicCode,
)
from geotype.refine import InvariantError, _orbit_keys
from geotype.shift import AdmissibilityError, binary_branches, require_symbols


class ShiftEqualError(GeoTypeError):
    """Two interval references denote the same shifted code."""


def j_index(T: GeometricType, code: PeriodicCode, t: int) -> int:
    """The unique strip of rectangle w_t that maps into rectangle w_{t+1}."""
    require_symbols(T.n, code.word)
    i = code.symbol(t)
    nxt = code.symbol(t + 1)
    for j in range(1, T.h[i - 1] + 1):
        if T.xi((i, j)) == nxt:
            return j
    raise AdmissibilityError(
        f"no strip of rectangle {i} maps into rectangle {nxt} (code {code})"
    )


def mismatch_M(T: GeometricType, a: IntervalRef, b: IntervalRef) -> int:
    """First forward time at which the two shifted codes disagree."""
    if a.host != b.host:
        raise ValueError("interval references must share a host rectangle")
    if a.code.rotate(a.t) == b.code.rotate(b.t):
        raise ShiftEqualError(f"intervals ({a.t},{a.code}) and ({b.t},{b.code}) are shift-equal")
    window = lcm(a.code.period, b.code.period)
    for m in range(1, window + 1):
        if a.code.symbol(a.t + m) != b.code.symbol(b.t + m):
            return m
    raise ShiftEqualError("mismatch search window exceeded; inputs are shift-equal")


def interchange_delta(T: GeometricType, a: IntervalRef, b: IntervalRef) -> int:
    """Sign of the orientation product before the codes diverge; +1 when M = 1."""
    M = mismatch_M(T, a, b)
    if M == 1:
        return 1
    delta_a = 1
    delta_b = 1
    for m in range(M - 1):
        delta_a *= T.eps_of((a.code.symbol(a.t + m), j_index(T, a.code, a.t + m)))
        delta_b *= T.eps_of((b.code.symbol(b.t + m), j_index(T, b.code, b.t + m)))
    if delta_a != delta_b:
        raise InvariantError("orientation product must not depend on the code")
    return delta_a


def _kneading_key(
    branches: dict[tuple[int, int], tuple[int, int]], ref: IntervalRef, span: int
) -> tuple[int, ...]:
    """The key of one cut line: its phase's entry of :func:`_orbit_keys`."""
    return _orbit_keys(branches, ref.code, span)[ref.t]


def interval_less(T: GeometricType, a: IntervalRef, b: IntervalRef) -> bool:
    """Strict vertical order of two cut lines with a common host rectangle.

    ``a`` lies below ``b`` exactly when its :func:`_kneading_key` of the
    Fine-Wilf length 2(p_a + p_b) is smaller (see ``build_order``).
    """
    if a.host != b.host:
        raise ValueError("interval references must share a host rectangle")
    branches = binary_branches(T)
    span = 2 * (a.code.period + b.code.period)
    key_a = _kneading_key(branches, a, span)
    key_b = _kneading_key(branches, b, span)
    if key_a == key_b:
        raise ShiftEqualError(f"intervals ({a.t},{a.code}) and ({b.t},{b.code}) are shift-equal")
    return key_a < key_b


def position(table: OrderTable, ref: IntervalRef) -> int:
    """The table position of a cut line: its rank from the bottom, 1-based."""
    return table.positions[table.family.index(ref.code)][ref.t]


# -- dense matrix arithmetic -----------------------------------------------------


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][m] * b[m][k] for m in range(n)) for k in range(n)]
        for i in range(n)
    ]


def matrix_power(A: IncidenceMatrix, p: int) -> list[list[int]]:
    n = A.n
    result = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    base = [list(row) for row in A.rows]
    while p:
        if p & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        p >>= 1
    return result


def trace_power(A: IncidenceMatrix, p: int) -> int:
    """tr(A^p) off the dense power."""
    power = matrix_power(A, p)
    return sum(power[i][i] for i in range(A.n))


def wielandt_is_mixing(A: IncidenceMatrix) -> bool:
    """Primitivity: some power is entrywise positive.

    Checking powers up to the Wielandt bound n^2 - 2n + 2 is sufficient, so
    the scan is finite and exact.
    """
    n = A.n
    bound = n * n - 2 * n + 2
    boolean = [[1 if x else 0 for x in row] for row in A.rows]
    power = boolean
    for _ in range(bound):
        if all(all(x for x in row) for row in power):
            return True
        power = [[1 if x else 0 for x in row] for row in _mat_mul(power, boolean)]
    return False
