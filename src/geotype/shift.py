"""
Incidence matrices and the symbolic side: admissibility, mixing, periodic
codes and their shift orbits.

The subshift itself is only ever materialized through finite data: its
sparse transition graph, one-period words, and eventually periodic codes (a
finite triple of words).  No dense matrix is kept: the ``incidence``
printout writes each row's text from that row's successor map.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Sequence

from .core import GeoTypeError, GeometricType, ParseError, _lex_columns, _rect_column, require_valid
from .core import _Record


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
    """The least rotation of a nonempty word.  It starts at the word's least
    symbol, so only the rotations that start there are compared."""
    word = tuple(word)
    least = min(word)
    return min([word[k:] + word[:k] for k, s in enumerate(word) if s == least])


def _orbit_key(word: tuple[int, ...]) -> tuple[int, ...]:
    """The key word of the orbit of the code that repeats ``word``, a phase
    or a power of one: the least rotation of its primitive root."""
    return min_rotation(primitive_root(word))


def _key_codes(words: Iterable[tuple[int, ...]]) -> list["PeriodicCode"]:
    """The key codes of orbits given by their key words, unchecked and
    flagged least, sorted by (period, word): by word, then stably by
    length, with no key function written in Python."""
    ordered = sorted(words)
    ordered.sort(key=len)
    return [PeriodicCode._of(word, True) for word in ordered]


def _require_int_symbols(word: tuple[object, ...]) -> None:
    """Raise ``ValueError`` unless every symbol is an ``int`` >= 1; a ``bool``
    or a ``float`` is not one, so no later list index meets it."""
    if not all(type(s) is int and s >= 1 for s in word):
        raise ValueError("code symbols must be positive integers")


class PeriodicCode(_Record):
    """One minimal period of a pointed periodic code; index 0 is the phase.

    ``PeriodicCode(word)`` checks its word: nonempty, every symbol an ``int``
    >= 1, primitive.  The codes the library derives are primitive by
    construction and skip that check through the private :meth:`_of`: a
    rotation or time reversal of a primitive word is primitive, and so is a
    primitive root or a Lyndon word of :func:`enumerate_orbits`.  An orbit's
    key code is flagged as its own least rotation, so its :meth:`orbit`
    computes no rotation.  The orbit is built on the first :meth:`orbit`
    call and kept on the object, out of ``==``, ``hash`` and ``repr``.
    """

    _fields = ("word",)
    _least = False  # not a field: set on codes known to be their least rotation

    def __init__(self, word: Sequence[int]) -> None:
        word = tuple(word)
        if not word:
            raise ValueError("periodic code word must be nonempty")
        _require_int_symbols(word)
        if (root := primitive_root(word)) != word:
            raise ValueError(f"word {word} is not primitive (minimal period {len(root)})")
        self._set_fields(word)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.word,))

    @classmethod
    def _of(cls, word: tuple[int, ...], least: bool = False) -> "PeriodicCode":
        """The code of ``word``, unchecked: only for a tuple of positive ints
        that is primitive by construction (and its least rotation if ``least``)."""
        code = object.__new__(cls)
        object.__setattr__(code, "word", word)
        if least:
            object.__setattr__(code, "_least", True)
        return code

    @property
    def period(self) -> int:
        return len(self.word)

    def symbol(self, t: int) -> int:
        return self.word[t % len(self.word)]

    def rotate(self, t: int) -> "PeriodicCode":
        """The shifted pointed code sigma^t(w)."""
        t %= len(self.word)
        return PeriodicCode._of(self.word[t:] + self.word[:t], self._least and not t)

    def reversed_pointed(self) -> "PeriodicCode":
        """Time reversal keeping the phase: new word t -> old word (-t)."""
        return PeriodicCode._of(self.word[:1] + self.word[:0:-1])

    def orbit(self) -> "CodeOrbit":
        return self._orbit

    @cached_property
    def _orbit(self) -> "CodeOrbit":
        return CodeOrbit._of(self._least_copy())

    def _orbit_word(self) -> tuple[int, ...]:
        """The word of its orbit's key code: this code's own word when it is
        flagged least, with no orbit built; otherwise the kept orbit's."""
        return self.word if self._least else self._orbit.canonical.word

    def _least_copy(self) -> "PeriodicCode":
        """A new code holding this code's least rotation: never ``self``, so
        the orbit a code keeps does not refer back to it (no reference cycle)."""
        return PeriodicCode._of(self.word if self._least else min_rotation(self.word), True)

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.word)


class CodeOrbit(_Record):
    """A shift orbit of periodic codes, keyed by a new code holding its least
    rotation.

    ``CodeOrbit(phase)`` normalizes any phase, and :meth:`from_word` checks
    its symbols and keys a phase or a power of one by :func:`_orbit_key`.
    The orbits of :func:`enumerate_orbits` and :meth:`PeriodicCode.orbit`
    are built canonical by the private :meth:`_of`, with nothing to
    normalize.  The library itself keeps and compares orbits by their key
    words alone, such as each side of a type's periodic boundary; it builds
    orbit objects only for callers that ask for them.
    """

    _fields = ("canonical",)

    def __init__(self, canonical: PeriodicCode) -> None:
        self._set_fields(canonical._least_copy())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.canonical.word == other.canonical.word
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.canonical,))

    @classmethod
    def _of(cls, canonical: PeriodicCode) -> "CodeOrbit":
        """The orbit keyed by ``canonical``, unchecked: a code flagged least."""
        orbit = object.__new__(cls)
        object.__setattr__(orbit, "canonical", canonical)
        return orbit

    @classmethod
    def from_word(cls, word: Sequence[int]) -> "CodeOrbit":
        """The orbit of the code that repeats ``word``, a phase or a power of one."""
        word = tuple(word)
        if not word:
            raise ValueError("periodic code word must be nonempty")
        _require_int_symbols(word)
        return cls._of(PeriodicCode._of(_orbit_key(word), True))

    @property
    def period(self) -> int:
        return self.canonical.period

    def phases(self) -> tuple[PeriodicCode, ...]:
        return tuple(self.canonical.rotate(t) for t in range(self.period))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.period, self.canonical.word)


class EventuallyPeriodicCode(_Record):
    """Bi-infinite code ...LLL M RRR... ; L fills z < 0, R fills z >= len(M).

    Each part is kept as a tuple of ``int`` symbols >= 1, checked here."""

    _fields = ("left_cycle", "middle", "right_cycle")

    def __init__(self, left_cycle: Sequence[int], middle: Sequence[int], right_cycle: Sequence[int]) -> None:
        if not left_cycle or not right_cycle:
            raise ValueError("left and right cycles must be nonempty")
        words: list[tuple[int, ...]] = []
        for word in (left_cycle, middle, right_cycle):
            words.append(tuple(word))
            _require_int_symbols(words[-1])
        self._set_fields(*words)

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


class IncidenceMatrix(_Record):
    """The transition graph: ``succ[i - 1]`` is ``{k: a_ik}`` over the entries
    a_ik >= 1 of row i, keys in increasing order; every symbolic operation reads it."""

    _fields = ("succ",)

    def __init__(self, succ: Sequence[dict[int, int]]) -> None:
        succ, n = tuple(dict(sorted(row.items())) for row in succ), len(succ)
        if n == 0 or any(not 1 <= k <= n or a < 1 for row in succ for k, a in row.items()):
            raise ValueError(f"incidence matrix must be nonempty, entries positive, columns 1..{n}")
        self._set_fields(succ)

    @property
    def n(self) -> int:
        return len(self.succ)

    def __str__(self) -> str:
        """The dense n x n rows as text, each written from its successor map."""
        return "\n".join(self._text_rows())

    def _text_rows(self) -> Iterator[str]:
        """The rows of :meth:`__str__` one at a time, so a caller that writes
        each as it comes holds one dense row, not the whole text."""
        for row in self.succ:
            dense = ["0"] * self.n
            for k, a in row.items():
                dense[k - 1] = str(a)
            yield ",".join(dense)


def incidence_matrix(T: GeometricType) -> IncidenceMatrix:
    """a_ik = number of horizontal strips of rectangle i mapped into rectangle k."""
    require_valid(T)
    succ: list[dict[int, int]] = [{} for _ in range(T.n)]
    rows, _ = _lex_columns(T.h)
    for i, k in zip(rows, _rect_column(T.v, T._slots)):
        succ[i - 1][k] = succ[i - 1].get(k, 0) + 1
    return IncidenceMatrix(tuple(succ))


def is_binary(A: IncidenceMatrix) -> bool:
    return all(a == 1 for row in A.succ for a in row.values())


def require_binary(T: GeometricType) -> None:
    """Raise ``InvalidTypeError`` unless T is valid, and ``NonBinaryError``
    unless its incidence matrix is binary.

    The matrix is binary exactly when the steps (i, xi(i, j)) of the strips
    are distinct, so this guard builds no matrix and no branch table: the
    type's kept fact reads the step keys of ``core._step_keys`` into a set,
    once per type object, or the size of the branch table when T already
    keeps one.  Guards whose callers read no branch, such as the
    postcondition of a refinement, use this one.
    """
    require_valid(T)
    if not T._binary:
        raise NonBinaryError("incidence matrix is not binary")


def binary_branches(T: GeometricType) -> dict[int, int]:
    """The branch table ``{i * (n + 1) + k: eps(i, j) * j}`` of a valid binary type.

    Strip j of rectangle i is the unique strip mapping into rectangle
    k = xi(i, j), and the table maps the key of the step (i, k),
    ``core._branch_keys``, to j signed by the strip's orientation.  It is
    the accessor of the walks that look steps up (the cutting-family and
    code checks, whose values ``refine.build_order`` keeps on its order
    table as the step column, and the steps of every recoded code); a
    guard that only needs T binary calls :func:`require_binary`,
    so a type keeps a table only when some walk reads it.  A key is unique
    only among steps with both symbols in 1..n, so a reader range-checks its symbols
    (:func:`require_symbols`) before a lookup.  The table is kept on T,
    built once in O(alpha), so callers must not mutate it, and T's binary
    fact is read off its size.  Raises ``InvalidTypeError`` or
    ``NonBinaryError`` otherwise.
    """
    require_valid(T)
    branches = T._branches
    require_binary(T)
    return branches


def _bfs_levels(succ: Sequence[Iterable[int]]) -> list[int]:
    """BFS distances from vertex 1 over 1-based successor lists; -1 where unreached."""
    level = [-1] * len(succ)
    level[0] = 0
    queue = [1]
    for i in queue:  # the queue grows while it is read
        for k in succ[i - 1]:
            if level[k - 1] < 0:
                level[k - 1] = level[i - 1] + 1
                queue.append(k)
    return level


def is_mixing(A: IncidenceMatrix) -> bool:
    """Primitivity: strongly connected with period 1, in O(n + edges).

    Strongly connected: a BFS from rectangle 1 reaches every rectangle along
    the edges and one against them.  The period is then the gcd of level(i)
    + 1 - level(k) over the edges i -> k, with forward levels (Denardo 1977).
    """
    level = _bfs_levels(A.succ)
    pred: list[list[int]] = [[] for _ in A.succ]
    for i, row in enumerate(A.succ, start=1):
        for k in row:
            pred[k - 1].append(i)
    if -1 in level or -1 in _bfs_levels(pred):
        return False
    return gcd(*(level[i] + 1 - level[k - 1] for i, row in enumerate(A.succ) for k in row)) == 1


def require_symbols(n: int, word: tuple[int, ...]) -> None:
    """Raise ``AdmissibilityError`` unless every symbol of the word lies in 1..n."""
    if min(word) < 1 or max(word) > n:
        raise AdmissibilityError(f"symbol out of range 1..{n} in word {word}")


def is_admissible_cycle(A: IncidenceMatrix, word: Sequence[int]) -> bool:
    """True iff every consecutive pair, including the wrap, has a_ik >= 1."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    require_symbols(A.n, word)
    return all(word[(t + 1) % len(word)] in A.succ[word[t] - 1] for t in range(len(word)))


def enumerate_orbits(A: IncidenceMatrix, max_period: int) -> tuple[CodeOrbit, ...]:
    """All shift orbits of admissible periodic codes with minimal period <= P.

    The FKM prenecklace recursion on the transition digraph (Fredricksen,
    Kessler and Maiorana 1978; Cattell et al., J. Algorithms 37, 2000): a
    prefix with Lyndon period p extends by successors >= word[-p], p
    staying on equality and becoming len + 1 on a larger symbol.  A Lyndon
    word (len == p) whose wrap edge exists is kept: it is primitive and its
    orbit's least rotation, so it becomes that orbit's key with no check.
    The stack is explicit: the depth is P, and P = 1500 passes the interpreter's
    recursion limit.  Output is sorted by (period, word).
    """
    if not is_binary(A):
        raise NonBinaryError("incidence matrix is not binary")
    if max_period < 0:
        raise ValueError("period bound must be nonnegative")
    found: list[tuple[int, ...]] = []
    stack = [((start,), 1) for start in range(1, A.n + 1)] if max_period >= 1 else []
    while stack:
        word, p = stack.pop()
        n, row, low = len(word), A.succ[word[-1] - 1], word[-p]
        if n == p and word[0] in row:
            found.append(word)
        if n < max_period:
            stack.extend((word + (nxt,), p if nxt == low else n + 1) for nxt in row if nxt >= low)
    return tuple(map(CodeOrbit._of, _key_codes(found)))


def count_periodic_points(A: IncidenceMatrix, P: int) -> int:
    """Number of sigma^P-fixed admissible codes: tr(A^P), the sum over i of
    entry i of the sparse vector e_i pushed P steps along the successor maps."""
    if P < 1:
        raise ValueError("P must be positive")
    total = 0
    for i in range(1, A.n + 1):
        walks = {i: 1}
        for _ in range(P):
            step: dict[int, int] = {}
            for k, count in walks.items():
                for m, a in A.succ[k - 1].items():
                    step[m] = step.get(m, 0) + count * a
            walks = step
        total += walks.get(i, 0)
    return total


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
    lines = ["digraph incidence {"] + [f"  {i};" for i in range(1, A.n + 1)]
    for i, row in enumerate(A.succ, start=1):
        lines.extend(f'  {i} -> {k} [label="{m}"];' for k, m in row.items())
    lines.append("}")
    return "\n".join(lines) + "\n"
