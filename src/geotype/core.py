"""
Geometric types: the combinatorial record of how a map permutes, orders and
reorients the sub-rectangles of a geometrized Markov partition.

A geometric type is a quintuple (n, {h_i, v_i}, rho, eps): n rectangles, h_i
horizontal and v_i vertical sub-rectangle counts, a bijection rho from
horizontal labels (i, j) to vertical labels (k, l), and an orientation sign
eps(i, j) in {+1, -1}.  All indices are 1-based; position j = 1 is the bottom
strip and l = 1 the leftmost strip.

The package's records generate no code at import.  A record with no kept
facts and no argument checks is a ``typing.NamedTuple``, as ``HLabel`` is.
Any other is a class on ``_Record``, where assignment and deletion raise
``AttributeError``: its ``__init__`` checks its arguments and stores them
past that guard, and its ``_fields`` name the members that ``==``, ``hash``
(of their tuple) and ``repr`` read.  Facts derived from them are
``cached_property``s, written to ``__dict__`` past the guard and left out of
``==``, ``hash`` and ``repr``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain, cycle, islice, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class GeoTypeError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(GeoTypeError):
    """Malformed textual input (syntax, range, or duplicate-label errors)."""


class InvalidTypeError(GeoTypeError):
    """An operation received a geometric type that fails validation."""


class InvariantError(GeoTypeError):
    """A construction broke an invariant it guarantees for valid binary input."""


class HLabel(NamedTuple):
    i: int
    j: int


class VLabel(NamedTuple):
    k: int
    l: int


class _Record:
    """An immutable record (see the module docstring); the classes whose
    ``==`` and ``hash`` are hot write them out by hand."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _set_fields(self, *values: object) -> None:
        """Store ``values`` as the ``_fields``, in order, past the guard."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _lex_columns(counts: Sequence[int]) -> tuple[Iterator[int], Iterator[int]]:
    """The i and the j column of the pairs (i, j), j = 1..counts[i - 1], in
    lexicographic order: the one walk of a label sequence, such as T's
    horizontal labels for ``T.h``.  Each is a ``chain`` of ``repeat``s or
    ``range``s, run in C with no frame per strip."""
    rows = chain.from_iterable(map(repeat, range(1, len(counts) + 1), counts))
    strips = chain.from_iterable(map(range, repeat(1), [c + 1 for c in counts]))
    return rows, strips


def _lex_pairs(counts: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The pairs of :func:`_lex_columns`."""
    return zip(*_lex_columns(counts))


def _slot_bases(v: Sequence[int]) -> tuple[int, ...]:
    """``bases[k]`` = v_1 + ... + v_{k-1} - 1, so (k, l) has the 0-based
    vertical slot bases[k] + l (``bases[0]`` is unused)."""
    return (0, *accumulate(v, initial=-1))


def _rect_column(v: Sequence[int], slots: Sequence[int]) -> list[int]:
    """The rectangle k of each vertical slot.

    When there are as many slots as vertical labels, as for the strips of a
    valid type (Σv = alpha), k is read off a table of the Σv slots'
    rectangles, expanded by ``accumulate`` from the count of rectangles
    that start at each slot (more than one past an empty rectangle), with
    no ``repeat`` per rectangle.  Otherwise, which only an invalid type's
    strips reach, each slot is bisected into the offsets v_1 + ... +
    v_{k-1}, so that no table is sized by a Σv past alpha: the CI
    ``huge_v`` step, a type file with a v far past alpha, relies on it.
    """
    offsets = tuple(accumulate(v, initial=0))
    if offsets[-1] != len(slots):
        return list(map(bisect_right, repeat(offsets), slots))
    starts = [0] * (len(slots) + 1)
    for offset in offsets[:-1]:
        starts[offset] += 1
    ks = list(range(len(v) + 1))  # the table shares these n ints, not one int per slot
    table = list(map(ks.__getitem__, accumulate(starts)))
    return list(map(table.__getitem__, slots))


def _targets(v: Sequence[int], slots: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The vertical label (k, l) of each slot, in slot-column order."""
    ks = _rect_column(v, slots)
    return zip(ks, map(sub, slots, map(_slot_bases(v).__getitem__, ks)))


def _branch_keys(n: int, rows: Iterable[int], targets: Iterable[int]) -> Iterator[int]:
    """The branch-table key i * (n + 1) + k of each step (i, k) of
    ``zip(rows, targets)``: the one layout of :attr:`GeometricType._branches`,
    which :func:`_step_keys` writes from a type's columns.

    Keys are distinct only for 1 <= k <= n: (1, n + 2) has the key of
    (2, 1), so every reader range-checks a word's symbols before a lookup,
    or, like the affine oracle's walk, after one misses: a symbol past n is
    also the row of its own step, whose key lies above every key in range.
    """
    return map(add, map(mul, rows, repeat(n + 1)), targets)


def _step_keys(T: "GeometricType") -> Iterator[int]:
    """The :func:`_branch_keys` key i * (n + 1) + k of every strip's step
    (i, k), k the rectangle of rho(i, j) (:func:`_rect_column`), in
    lexicographic strip order; T must be valid.

    A list holding n + 1 at the first strip of every row sums, by
    ``accumulate``, to i * (n + 1) at each strip of row i: a valid type
    has no empty row, so no ``repeat`` or ``range`` object is made per row.
    """
    rows, step = [0] * len(T._slots), T.n + 1
    for start in T._offsets[:-1]:
        rows[start] = step
    return map(add, accumulate(rows), _rect_column(T.v, T._slots))


class GeometricType(_Record):
    """Immutable geometric type.

    ``GeometricType(h, v, rho, eps)`` takes rho as (k, l) pairs, lists or
    ``VLabel``s and eps as signs, aligned with the lexicographic order of
    the horizontal labels; every count, target index and sign must be an
    ``int`` and not a ``bool``, as ``serialize`` and ``parse`` need.  It
    stores each strip's target as one integer
    next to its sign: the target's 0-based vertical slot, v_1 + ... +
    v_{k-1} + l - 1, so that rho is a permutation of the alpha slots of a
    valid type.  ``rho`` is a view, the tuple of ``VLabel``s built from the
    slots on first read, or the tuple given to the constructor when it
    holds ``VLabel``s.  ``==`` and ``hash`` read h, v, the slots and eps,
    so two structurally equal types compare equal however they were built,
    and ``repr`` shows rho as ``VLabel``s.

    Facts derived from the fields (validation report, lexicographic offsets,
    inverse type, whether it is binary, branch table, gamma table over the
    2n boundary slots, and each side's periodic boundary orbits, kept as the
    one set of their key words) are computed at most once per object and
    kept in private cached members, which ``==``, ``hash`` and ``repr``
    ignore.
    """

    def __init__(
        self,
        h: Sequence[int],
        v: Sequence[int],
        rho: Sequence[Sequence[int]],
        eps: Sequence[int],
    ) -> None:
        h, v, eps = (x if type(x) is tuple else tuple(x) for x in (h, v, eps))
        n = len(h)
        if n == 0 or len(v) != n:
            raise ValueError("h and v must be nonempty lists of equal length")
        if not all(type(x) is int for x in chain(h, v, eps, *rho)):
            raise ValueError("h, v, rho targets and eps entries must be ints, not bools or floats")
        if any(x < 0 for x in h) or any(x < 0 for x in v):
            raise ValueError("sub-rectangle counts must be nonnegative")
        alpha = sum(h)
        if len(rho) != alpha or len(eps) != alpha:
            raise ValueError("rho and eps must have one entry per horizontal label")
        counts, bases = (0, *v), _slot_bases(v)
        slots = tuple([bases[k] + l if 0 < k <= n and 0 < l <= counts[k] else -1 for k, l in rho])
        if -1 in slots:  # the first target out of range
            k, l = rho[slots.index(-1)]
            part = "vertical position" if 1 <= k <= n else "rectangle index"
            raise ValueError(f"rho target {VLabel(k, l)}: {part} out of range")
        if not set(eps) <= {1, -1}:
            raise ValueError("eps entries must be +1 or -1")
        self._store(h, v, slots, eps)
        if type(rho) is tuple and not set(map(type, rho)) - {VLabel}:
            self.__dict__["rho"] = rho

    @classmethod
    def _from_slots(
        cls, h: tuple[int, ...], v: tuple[int, ...], slots: tuple[int, ...], eps: tuple[int, ...]
    ) -> "GeometricType":
        """The constructor of the library's refinements, inverse and parser:
        tuples of counts, slots and signs as stored, already in range;
        validity is left to :func:`validate`."""
        T = object.__new__(cls)
        T._store(h, v, slots, eps)
        return T

    def _store(self, h: tuple, v: tuple, slots: tuple, eps: tuple) -> None:
        """Set the four fields: the last step of every construction."""
        self.__dict__.update(h=h, v=v, _slots=slots, eps=eps)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.h, self.v, self._slots, self.eps) == (other.h, other.v, other._slots, other.eps)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.h, self.v, self._slots, self.eps))

    def __repr__(self) -> str:
        return f"GeometricType(h={self.h!r}, v={self.v!r}, rho={self.rho!r}, eps={self.eps!r})"

    @cached_property
    def rho(self) -> tuple[VLabel, ...]:
        """rho(i, j) for each horizontal label in lexicographic order, as ``VLabel``s."""
        return tuple(map(tuple.__new__, repeat(VLabel), _targets(self.v, self._slots)))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        h: tuple[int, ...] | list[int],
        v: tuple[int, ...] | list[int],
        mapping: Mapping[tuple[int, int], tuple[int, int, int]],
    ) -> "GeometricType":
        """Build a type from ``{(i, j): (k, l, eps)}``, one entry per label: for
        callers holding a label-keyed map (the library passes aligned sequences)."""
        h = tuple(h)
        v = tuple(v)
        rho: list[tuple[int, int]] = []
        eps: list[int] = []
        for i, j in _lex_pairs(h):
            if (i, j) not in mapping:
                raise ValueError(f"mapping is missing horizontal label ({i},{j})")
            k, l, e = mapping[(i, j)]
            rho.append((k, l))
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
        """Needs a valid type; :func:`invert` checks that first.

        The slots of a valid type are a permutation of 0..alpha-1, and the
        inverse's slot column is the inverse permutation: its strip s, T's
        vertical label of slot s, maps to T's strip x with slot s, which is
        the inverse's vertical slot x.  One pass writes it, and each eps
        value is permuted along.  The inverse keeps no reference back to
        this type, so the two form no reference cycle.  A refinement along a
        family that cuts nothing returns its source object, so its inverse,
        once built, is kept for the next stage as well.
        """
        inverse = [0] * len(self._slots)
        for x, slot in enumerate(self._slots):
            inverse[slot] = x
        return GeometricType._from_slots(
            self.v, self.h, tuple(inverse), tuple(map(self.eps.__getitem__, inverse))
        )

    @cached_property
    def _branches(self) -> dict[int, int]:
        """The branch table ``{i * (n + 1) + k: eps(i, j) * j}`` with k the
        rectangle of rho(i, j), keyed by :func:`_step_keys` and built in C
        with no tuple per strip; needs a valid type, and
        :func:`shift.binary_branches` checks it."""
        _, strips = _lex_columns(self.h)
        return dict(zip(_step_keys(self), map(mul, self.eps, strips)))

    @cached_property
    def _binary(self) -> bool:
        """Whether the steps (i, xi(i, j)) of the strips are distinct, that
        is, whether the incidence matrix is binary; needs a valid type.  The
        kept branch table answers when it exists, and otherwise the set of
        the :func:`_step_keys`, which is not kept: only a type that some
        code walk reads keeps a table.  :func:`shift.require_binary` reads it."""
        steps = self.__dict__.get("_branches")
        if steps is None:
            steps = set(_step_keys(self))
        return len(steps) == len(self._slots)

    @cached_property
    def _gamma(self) -> list[int]:
        """gamma on the 2n boundary slots, 2(i-1) for (i, -1) and 2i-1 for (i, +1),
        read off strips (i, 1) and (i, h_i) in the table of every slot's
        rectangle; needs a valid type, as ``_inverse`` does."""
        offsets = self._offsets
        strips = list(chain.from_iterable(zip(offsets, map(sub, offsets[1:], repeat(1)))))
        ks = list(map(_rect_column(self.v, self._slots).__getitem__, strips))
        return [
            2 * k - 1 if sign * self.eps[x] == 1 else 2 * k - 2
            for k, x, sign in zip(ks, strips, cycle((-1, 1)))
        ]

    @cached_property
    def _boundary_words(self) -> dict[bool, frozenset]:
        """``{unstable: the key words of that side's periodic boundary
        orbits}``, filled in side by side by ``boundary._boundary_words``,
        or by transport in ``refine.corner_refine_along``."""
        return {}

    # -- basic accessors ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.h)

    def h_labels(self) -> Iterator[HLabel]:
        return map(tuple.__new__, repeat(HLabel), _lex_pairs(self.h))

    def lex_index(self, label: tuple[int, int]) -> int:
        """Position of a horizontal label in lexicographic order, 1-based."""
        i, j = label
        if not (1 <= i <= self.n and 1 <= j <= self.h[i - 1]):
            raise ValueError(f"label ({i},{j}) is not a horizontal label of this type")
        return self._offsets[i - 1] + j

    def phi(self, label: tuple[int, int]) -> tuple[int, int, int]:
        """The one strip lookup: (k, l, eps(i, j)) for (k, l) = rho(i, j)."""
        x = self.lex_index(label) - 1
        k, l = self.rho[x]
        return (k, l, self.eps[x])


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def _check_invariants(T: GeometricType) -> ValidationReport:
    """The validation report; a valid type costs a permutation check on its
    slots and builds no labels.

    There are Σh slots, so when Σh = Σv they are a permutation of the Σv
    vertical slots exactly when they are distinct and lie in 0..Σv-1.  Only
    an invalid type gets the label-by-label scan that names every violation,
    but only the first ten unreached labels, with a count of the rest.
    """
    slots = T._slots
    if (
        min(T.h) >= 1
        and min(T.v) >= 1
        and sum(T.h) == sum(T.v)
        and min(slots) >= 0
        and max(slots) < len(slots)
        and len(set(slots)) == len(slots)
    ):
        return ValidationReport(True, ())
    violations: list[str] = []
    bad_h = [i for i in range(1, T.n + 1) if T.h[i - 1] < 1]
    bad_v = [i for i in range(1, T.n + 1) if T.v[i - 1] < 1]
    if bad_h:
        violations.append(f"h_i < 1 for rectangles {bad_h}")
    if bad_v:
        violations.append(f"v_i < 1 for rectangles {bad_v}")
    if sum(T.h) != sum(T.v):
        violations.append(f"Σh ≠ Σv ({sum(T.h)} ≠ {sum(T.v)})")
    seen: dict[VLabel, tuple[int, int]] = {}
    duplicated: list[str] = []
    for (i, j), target in zip(_lex_pairs(T.h), T.rho):
        if target in seen:
            a, b = seen[target]
            duplicated.append(f"rho({a},{b}) = rho({i},{j}) = ({target.k},{target.l})")
        else:
            seen[target] = (i, j)
    if duplicated:
        violations.append("rho not injective: " + "; ".join(duplicated))
    elif len(seen) != sum(T.v):
        # Of a rectangle's first len(seen) + 10 labels at least 10 are
        # unreached, so capping v_k there keeps the first 10: O(n + alpha).
        capped = [min(c, len(seen) + 10) for c in T.v]
        missing = list(islice((VLabel(*t) for t in _lex_pairs(capped) if t not in seen), 10))
        more = sum(T.v) - len(seen) - len(missing)
        violations.append(
            f"rho not surjective: unreached vertical labels {missing}" + (f" and {more} more" if more else "")
        )
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
    for (i, j), (k, l), e in zip(_lex_pairs(T.h), _targets(T.v, T._slots), T.eps):
        sign = "+" if e == 1 else "-"
        lines.append(f"map ({i},{j})->({k},{l}) {sign}")
    return "\n".join(lines) + "\n"


def _parse_int(digits: str, lineno: int) -> int:
    """``int(digits)``; a run past the interpreter's digit limit is a ``ParseError``."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"line {lineno}: integer of {len(digits)} digits is too long") from None


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

    Syntax, index ranges, the map-line count and duplicate labels are parse
    errors; the counting and bijection invariants are left to :func:`validate`
    so that well-formed but invalid types can be reported on.  Each of the
    Σh map lines writes its target's vertical slot at its label's
    lexicographic position; distinct, in-range labels fill them all, so no
    label can be missing.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise ParseError("line 1: truncated input, expected at least 4 lines")
    if lines[0] != "GEOTYPE 1":
        raise ParseError("line 1: expected header 'GEOTYPE 1'")
    m = re.fullmatch(r"n=(\d+)", lines[1])
    if not m:
        raise ParseError("line 2: expected 'n=<positive integer>'")
    n = _parse_int(m.group(1), 2)
    if n < 1:
        raise ParseError("line 2: n must be positive")
    h = _parse_counts(lines[2], 3, "h", n)
    v = _parse_counts(lines[3], 4, "v", n)
    alpha_h = sum(h)
    body = lines[4:]
    if len(body) != alpha_h:  # before the tables of alpha_h slots are allocated
        raise ParseError(f"line {len(lines)}: expected {alpha_h} map lines, got {len(body)}")

    offsets = tuple(accumulate(h, initial=0))
    bases = _slot_bases(v)
    slots = [-1] * alpha_h
    eps = [0] * alpha_h
    for offset, line in enumerate(body):
        lineno = 5 + offset
        m = _MAP_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: malformed map line")
        i, j, k, l = (_parse_int(m.group(g), lineno) for g in range(1, 5))
        if not (1 <= i <= n and 1 <= j <= h[i - 1]):
            raise ParseError(f"line {lineno}: horizontal label ({i},{j}) out of range")
        if not (1 <= k <= n and 1 <= l <= v[k - 1]):
            raise ParseError(f"line {lineno}: vertical label ({k},{l}) out of range")
        x = offsets[i - 1] + j - 1
        if slots[x] >= 0:
            raise ParseError(f"line {lineno}: duplicate horizontal label ({i},{j})")
        slots[x], eps[x] = bases[k] + l, 1 if m.group(5) == "+" else -1
    return GeometricType._from_slots(h, v, tuple(slots), tuple(eps))
