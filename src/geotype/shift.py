"""
Incidence matrices and the symbolic side: admissibility, mixing, periodic
codes and their shift orbits.

The subshift itself is only ever materialized through finite data: matrices,
one-period words, and eventually periodic codes (a finite triple of words).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import GeoTypeError, GeometricType, ParseError, require_valid


class NonBinaryError(GeoTypeError):
    """An operation that needs a binary incidence matrix got a non-binary one."""


class AdmissibilityError(GeoTypeError):
    """A code uses a transition forbidden by the incidence matrix."""


# -- words --------------------------------------------------------------------


def primitive_root(word: Sequence[int]) -> tuple[int, ...]:
    """Smallest word whose repetition gives ``word``."""
    word = tuple(word)
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def min_rotation(word: Sequence[int]) -> tuple[int, ...]:
    word = tuple(word)
    return min(word[k:] + word[:k] for k in range(len(word)))


@dataclass(frozen=True)
class PeriodicCode:
    """One minimal period of a pointed periodic code; index 0 is the phase."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        if not word:
            raise ValueError("periodic code word must be nonempty")
        if any(s < 1 for s in word):
            raise ValueError("code symbols must be positive integers")
        if primitive_root(word) != word:
            raise ValueError(
                f"word {word} is not primitive (minimal period {len(primitive_root(word))})"
            )
        object.__setattr__(self, "word", word)

    @property
    def period(self) -> int:
        return len(self.word)

    def symbol(self, t: int) -> int:
        return self.word[t % len(self.word)]

    def rotate(self, t: int) -> "PeriodicCode":
        """The shifted pointed code sigma^t(w)."""
        t %= len(self.word)
        return PeriodicCode(self.word[t:] + self.word[:t])

    def reversed_pointed(self) -> "PeriodicCode":
        """Time reversal keeping the phase: new word t -> old word (-t)."""
        return PeriodicCode((self.word[0],) + tuple(reversed(self.word[1:])))

    def orbit(self) -> "CodeOrbit":
        return CodeOrbit(PeriodicCode(min_rotation(self.word)))

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.word)


@dataclass(frozen=True)
class CodeOrbit:
    """A shift orbit of periodic codes, keyed by the minimal rotation."""

    canonical: PeriodicCode

    def __post_init__(self) -> None:
        if min_rotation(self.canonical.word) != self.canonical.word:
            raise ValueError("canonical representative must be the minimal rotation")

    @classmethod
    def from_word(cls, word: Sequence[int]) -> "CodeOrbit":
        return cls(PeriodicCode(min_rotation(word)))

    @property
    def period(self) -> int:
        return self.canonical.period

    def phases(self) -> tuple[PeriodicCode, ...]:
        return tuple(self.canonical.rotate(t) for t in range(self.period))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.period, self.canonical.word)


@dataclass(frozen=True)
class EventuallyPeriodicCode:
    """Bi-infinite code ...LLL M RRR... ; L fills z < 0, R fills z >= len(M)."""

    left_cycle: tuple[int, ...]
    middle: tuple[int, ...]
    right_cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.left_cycle or not self.right_cycle:
            raise ValueError("left and right cycles must be nonempty")
        for word in (self.left_cycle, self.middle, self.right_cycle):
            if any(s < 1 for s in word):
                raise ValueError("code symbols must be positive integers")

    def mirror(self) -> "EventuallyPeriodicCode":
        """Reverse time: position z of the mirror reads position -z."""
        return EventuallyPeriodicCode(
            tuple(reversed(self.right_cycle)),
            tuple(reversed(self.middle)),
            tuple(reversed(self.left_cycle)),
        )

    def transition_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        L, M, R = self.left_cycle, self.middle, self.right_cycle
        for cyc in (L, R):
            for a in range(len(cyc)):
                pairs.append((cyc[a], cyc[(a + 1) % len(cyc)]))
        chain = (L[-1],) + M + (R[0],)
        for a in range(len(chain) - 1):
            pairs.append((chain[a], chain[a + 1]))
        return pairs


# -- incidence matrices --------------------------------------------------------


@dataclass(frozen=True)
class IncidenceMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n == 0 or any(len(row) != n for row in self.rows):
            raise ValueError("incidence matrix must be square and nonempty")
        if any(x < 0 for row in self.rows for x in row):
            raise ValueError("incidence entries must be nonnegative")
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, k: int) -> int:
        return self.rows[i - 1][k - 1]

    def successors(self, i: int) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.n + 1) if self.entry(i, k) >= 1)

    def __str__(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.rows)


def incidence_matrix(T: GeometricType) -> IncidenceMatrix:
    """a_ik = number of horizontal strips of rectangle i mapped into rectangle k."""
    require_valid(T)
    rows = [[0] * T.n for _ in range(T.n)]
    for label in T.h_labels():
        rows[label.i - 1][T.xi(label) - 1] += 1
    return IncidenceMatrix(tuple(tuple(row) for row in rows))


def is_binary(A: IncidenceMatrix) -> bool:
    return all(x in (0, 1) for row in A.rows for x in row)


def require_binary(A: IncidenceMatrix) -> None:
    if not is_binary(A):
        raise NonBinaryError("incidence matrix is not binary")


def binary_branches(T: GeometricType) -> dict[tuple[int, int], tuple[int, int]]:
    """The branch table ``{(i, k): (j, eps(i, j))}`` of a valid binary type.

    Strip j of rectangle i is the unique strip mapping into rectangle
    k = xi(i, j).  The incidence matrix is binary exactly when the pairs
    (i, xi(i, j)) are distinct, so this guard costs O(alpha) and builds no
    matrix.  Raises ``InvalidTypeError`` or ``NonBinaryError`` otherwise.
    """
    require_valid(T)
    table = {
        (label.i, target.k): (label.j, e)
        for label, target, e in zip(T.h_labels(), T.rho, T.eps)
    }
    if len(table) != len(T.rho):
        raise NonBinaryError("incidence matrix is not binary")
    return table


def binary_incidence(T: GeometricType) -> IncidenceMatrix:
    """The incidence matrix of T; raises unless T is valid and it is binary."""
    binary_branches(T)
    return incidence_matrix(T)


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


def is_mixing(A: IncidenceMatrix) -> bool:
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


def is_admissible_cycle(A: IncidenceMatrix, word: Sequence[int]) -> bool:
    """True iff every consecutive pair, including the wrap, has a_ik >= 1."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    if any(not (1 <= s <= A.n) for s in word):
        raise AdmissibilityError(f"symbol out of range 1..{A.n} in word {word}")
    return all(A.entry(word[t], word[(t + 1) % len(word)]) >= 1 for t in range(len(word)))


def is_admissible_eventually_periodic(A: IncidenceMatrix, code: EventuallyPeriodicCode) -> bool:
    for a, b in code.transition_pairs():
        if not (1 <= a <= A.n and 1 <= b <= A.n):
            raise AdmissibilityError(f"symbol out of range 1..{A.n}")
        if A.entry(a, b) < 1:
            return False
    return True


def enumerate_orbits(A: IncidenceMatrix, max_period: int) -> tuple[CodeOrbit, ...]:
    """All shift orbits of admissible periodic codes with minimal period <= P.

    Depth-first search for Lyndon words over the transition digraph: a word is
    kept when it is primitive, minimal among its rotations, and closes up into
    an allowed cycle.  The search keeps an explicit stack, so its depth, P, is
    not bounded by the interpreter's recursion limit.  Output is sorted by
    (period, word).
    """
    require_binary(A)
    if max_period < 0:
        raise ValueError("period bound must be nonnegative")
    found: list[tuple[int, ...]] = []
    stack = [(start,) for start in range(1, A.n + 1)] if max_period >= 1 else []
    while stack:
        word = stack.pop()
        is_lyndon = all(word < word[k:] + word[:k] for k in range(1, len(word)))
        if is_lyndon and A.entry(word[-1], word[0]) >= 1:
            found.append(word)
        if len(word) < max_period:
            stack.extend(word + (nxt,) for nxt in A.successors(word[-1]) if nxt >= word[0])
    found.sort(key=lambda w: (len(w), w))
    return tuple(CodeOrbit(PeriodicCode(w)) for w in found)


def count_periodic_points(A: IncidenceMatrix, P: int) -> int:
    """Number of sigma^P-fixed admissible codes: tr(A^P)."""
    if P < 1:
        raise ValueError("P must be positive")
    power = matrix_power(A, P)
    return sum(power[i][i] for i in range(A.n))


# -- code file format -----------------------------------------------------------


def parse_codes(text: str) -> tuple[PeriodicCode, ...]:
    """Parse the CODE-line file format; '#' starts a comment line."""
    codes: list[PeriodicCode] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "CODE" or len(parts) < 2:
            raise ParseError(f"line {lineno}: expected 'CODE <w_0> <w_1> ...'")
        try:
            word = tuple(int(tok) for tok in parts[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: code symbols must be integers") from None
        try:
            codes.append(PeriodicCode(word))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return tuple(codes)


def serialize_codes(codes: Iterable[PeriodicCode]) -> str:
    return "".join(f"CODE {code}\n" for code in codes)


def incidence_dot(A: IncidenceMatrix) -> str:
    """Graphviz digraph of the incidence matrix with edge multiplicities."""
    lines = ["digraph incidence {"]
    for i in range(1, A.n + 1):
        lines.append(f"  {i};")
    for i in range(1, A.n + 1):
        for k in range(1, A.n + 1):
            m = A.entry(i, k)
            if m >= 1:
                lines.append(f'  {i} -> {k} [label="{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
