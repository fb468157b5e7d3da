"""
Geometric types: the combinatorial record of how a map permutes, orders and
reorients the sub-rectangles of a geometrized Markov partition.

A geometric type is a quintuple (n, {h_i, v_i}, rho, eps): n rectangles, h_i
horizontal and v_i vertical sub-rectangle counts, a bijection rho from
horizontal labels (i, j) to vertical labels (k, l), and an orientation sign
eps(i, j) in {+1, -1}.  All indices are 1-based; position j = 1 is the bottom
strip and l = 1 the leftmost strip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Mapping, NamedTuple


class GeoTypeError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(GeoTypeError):
    """Malformed textual input (syntax, range, or duplicate-label errors)."""


class InvalidTypeError(GeoTypeError):
    """An operation received a geometric type that fails validation."""


class HLabel(NamedTuple):
    i: int
    j: int


class VLabel(NamedTuple):
    k: int
    l: int


@dataclass(frozen=True)
class GeometricType:
    """Immutable geometric type.

    ``rho`` and ``eps`` are stored aligned with the lexicographic order of the
    horizontal labels, so two structurally equal types compare equal.

    Facts derived from the fields (the validation report, the lexicographic
    offsets and the inverse type) are computed at most once per object and
    kept in private cached members, which are not fields and so take no part
    in ``==``, ``hash`` or ``repr``.
    """

    h: tuple[int, ...]
    v: tuple[int, ...]
    rho: tuple[VLabel, ...]
    eps: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.h)
        if n == 0 or len(self.v) != n:
            raise ValueError("h and v must be nonempty lists of equal length")
        if any(x < 0 for x in self.h) or any(x < 0 for x in self.v):
            raise ValueError("sub-rectangle counts must be nonnegative")
        alpha = sum(self.h)
        if len(self.rho) != alpha or len(self.eps) != alpha:
            raise ValueError("rho and eps must have one entry per horizontal label")
        for target in self.rho:
            k, l = target
            if not (1 <= k <= n):
                raise ValueError(f"rho target {target}: rectangle index out of range")
            if not (1 <= l <= self.v[k - 1]):
                raise ValueError(f"rho target {target}: vertical position out of range")
        if any(e not in (1, -1) for e in self.eps):
            raise ValueError("eps entries must be +1 or -1")
        object.__setattr__(self, "rho", tuple(VLabel(*t) for t in self.rho))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        h: tuple[int, ...] | list[int],
        v: tuple[int, ...] | list[int],
        mapping: Mapping[tuple[int, int], tuple[int, int, int]],
    ) -> "GeometricType":
        """Build a type from ``{(i, j): (k, l, eps)}``, one entry per label."""
        h = tuple(h)
        v = tuple(v)
        rho: list[VLabel] = []
        eps: list[int] = []
        for i in range(1, len(h) + 1):
            for j in range(1, h[i - 1] + 1):
                if (i, j) not in mapping:
                    raise ValueError(f"mapping is missing horizontal label ({i},{j})")
                k, l, e = mapping[(i, j)]
                rho.append(VLabel(k, l))
                eps.append(e)
        if len(mapping) != len(rho):
            raise ValueError("mapping contains labels outside H(T)")
        return cls(h, v, tuple(rho), tuple(eps))

    # -- derived facts, computed once per value --------------------------------

    @cached_property
    def _report(self) -> "ValidationReport":
        return _check_invariants(self)

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """``_offsets[i - 1]`` is h_1 + ... + h_{i-1}."""
        return tuple(accumulate(self.h, initial=0))

    @cached_property
    def _inverse(self) -> "GeometricType":
        """Needs a valid type; :func:`invert` checks that first."""
        inv_map: dict[tuple[int, int], tuple[int, int, int]] = {}
        for label, (k, l), e in zip(self.h_labels(), self.rho, self.eps):
            inv_map[(k, l)] = (label.i, label.j, e)
        return GeometricType.build(self.v, self.h, inv_map)

    # -- basic accessors ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.h)

    def h_labels(self) -> Iterator[HLabel]:
        for i in range(1, self.n + 1):
            for j in range(1, self.h[i - 1] + 1):
                yield HLabel(i, j)

    def v_labels(self) -> Iterator[VLabel]:
        for k in range(1, self.n + 1):
            for l in range(1, self.v[k - 1] + 1):
                yield VLabel(k, l)

    def lex_index(self, label: tuple[int, int]) -> int:
        """Position of a horizontal label in lexicographic order, 1-based."""
        i, j = label
        if not (1 <= i <= self.n and 1 <= j <= self.h[i - 1]):
            raise ValueError(f"label ({i},{j}) is not a horizontal label of this type")
        return self._offsets[i - 1] + j

    def rho_of(self, label: tuple[int, int]) -> VLabel:
        return self.rho[self.lex_index(label) - 1]

    def eps_of(self, label: tuple[int, int]) -> int:
        return self.eps[self.lex_index(label) - 1]

    def xi(self, label: tuple[int, int]) -> int:
        """First component of rho: the rectangle the labelled strip maps into."""
        return self.rho_of(label).k

    def phi(self, label: tuple[int, int]) -> tuple[int, int, int]:
        """(k, l, eps) for a horizontal label."""
        target = self.rho_of(label)
        return (target.k, target.l, self.eps_of(label))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _check_invariants(T: GeometricType) -> ValidationReport:
    violations: list[str] = []
    bad_h = [i for i in range(1, T.n + 1) if T.h[i - 1] < 1]
    bad_v = [i for i in range(1, T.n + 1) if T.v[i - 1] < 1]
    if bad_h:
        violations.append(f"h_i < 1 for rectangles {bad_h}")
    if bad_v:
        violations.append(f"v_i < 1 for rectangles {bad_v}")
    if sum(T.h) != sum(T.v):
        violations.append(f"Σh ≠ Σv ({sum(T.h)} ≠ {sum(T.v)})")
    seen: dict[VLabel, HLabel] = {}
    duplicated: list[str] = []
    for label, target in zip(T.h_labels(), T.rho):
        if target in seen:
            duplicated.append(f"rho({seen[target].i},{seen[target].j}) = rho({label.i},{label.j}) = ({target.k},{target.l})")
        else:
            seen[target] = label
    if duplicated:
        violations.append("rho not injective: " + "; ".join(duplicated))
    elif len(seen) != sum(T.v):
        missing = [t for t in T.v_labels() if t not in seen]
        violations.append(f"rho not surjective: unreached vertical labels {missing}")
    return ValidationReport(not violations, tuple(violations))


def validate(T: GeometricType) -> ValidationReport:
    """Check the three geometric-type invariants and report violations.

    The report is computed on the first call for a type object and kept on
    it, so validating the same object again costs an attribute lookup.
    """
    return T._report


def require_valid(T: GeometricType) -> None:
    report = validate(T)
    if not report.ok:
        raise InvalidTypeError("invalid geometric type: " + "; ".join(report.violations))


def alpha(T: GeometricType) -> int:
    """Total number of sub-rectangles Σ h_i (= Σ v_i for valid types)."""
    require_valid(T)
    return sum(T.h)


def invert(T: GeometricType) -> GeometricType:
    """The inverse type: quarter-turn convention.

    h and v swap, rho is reversed as a relation, and each eps value rides
    along: eps' (k, l) = eps(i, j) whenever rho(i, j) = (k, l).  The
    construction is an exact involution.  It is built on the first call for
    a type object and kept on it, so repeated calls return the same object.
    """
    require_valid(T)
    return T._inverse


# -- canonical text format ----------------------------------------------------

_MAP_RE = re.compile(r"^map \((\d+),(\d+)\)->\((\d+),(\d+)\) ([+-])$")


def serialize(T: GeometricType) -> str:
    """Canonical text of a type: bit-exact, LF line endings, single spaces."""
    lines = ["GEOTYPE 1", f"n={T.n}"]
    lines.append("h=" + ",".join(str(x) for x in T.h))
    lines.append("v=" + ",".join(str(x) for x in T.v))
    for label in T.h_labels():
        k, l, e = T.phi(label)
        sign = "+" if e == 1 else "-"
        lines.append(f"map ({label.i},{label.j})->({k},{l}) {sign}")
    return "\n".join(lines) + "\n"


def _parse_counts(line: str, lineno: int, key: str, n: int) -> tuple[int, ...]:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ParseError(f"line {lineno}: expected '{key}=<counts>'")
    body = line[len(prefix):]
    try:
        counts = tuple(int(tok) for tok in body.split(","))
    except ValueError:
        raise ParseError(f"line {lineno}: {key} entries must be integers") from None
    if len(counts) != n:
        raise ParseError(f"line {lineno}: expected {n} entries in {key}, got {len(counts)}")
    if any(c < 1 for c in counts):
        raise ParseError(f"line {lineno}: {key} entries must be positive")
    return counts


def parse(text: str) -> GeometricType:
    """Parse the canonical geometric-type format with line-precise errors.

    Syntax, index ranges, duplicate and missing map lines are parse errors;
    the counting and bijection invariants are left to :func:`validate` so
    that structurally well-formed but invalid types can be reported on.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise ParseError("line 1: truncated input, expected at least 4 lines")
    if lines[0] != "GEOTYPE 1":
        raise ParseError("line 1: expected header 'GEOTYPE 1'")
    m = re.fullmatch(r"n=(\d+)", lines[1])
    if not m:
        raise ParseError("line 2: expected 'n=<positive integer>'")
    n = int(m.group(1))
    if n < 1:
        raise ParseError("line 2: n must be positive")
    h = _parse_counts(lines[2], 3, "h", n)
    v = _parse_counts(lines[3], 4, "v", n)
    alpha_h = sum(h)

    entries: dict[tuple[int, int], tuple[int, int, int]] = {}
    body = lines[4:]
    if len(body) != alpha_h:
        raise ParseError(f"line {len(lines)}: expected {alpha_h} map lines, got {len(body)}")
    for offset, line in enumerate(body):
        lineno = 5 + offset
        m = _MAP_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: malformed map line")
        i, j, k, l = (int(m.group(g)) for g in range(1, 5))
        e = 1 if m.group(5) == "+" else -1
        if not (1 <= i <= n and 1 <= j <= h[i - 1]):
            raise ParseError(f"line {lineno}: horizontal label ({i},{j}) out of range")
        if not (1 <= k <= n and 1 <= l <= v[k - 1]):
            raise ParseError(f"line {lineno}: vertical label ({k},{l}) out of range")
        if (i, j) in entries:
            raise ParseError(f"line {lineno}: duplicate horizontal label ({i},{j})")
        entries[(i, j)] = (k, l, e)
    for i in range(1, n + 1):
        for j in range(1, h[i - 1] + 1):
            if (i, j) not in entries:
                raise ParseError(f"line {len(lines)}: missing map line for horizontal label ({i},{j})")
    return GeometricType.build(h, v, entries)
