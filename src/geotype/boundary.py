"""
Boundary labels and their generating functions.

Each rectangle contributes two boundary labels, the ``SULabel``s (i, -1) for
the bottom edge and (i, +1) for the top edge.  :func:`theta` names the strip
holding an edge, and one range check rejects every other label.  The stable
generating function gamma follows the image of those edges one step at a
time; iterating it writes down the eventually periodic code every boundary
edge shadows.  The unstable side is the same construction run on the
inverse type, read backward.  Every boundary code comes from one gamma
table per side, gamma on the 2n integer slots (2(i-1) for (i, -1), 2i-1
for (i, +1)), kept on T and on ``invert(T)``: label summaries walk it.

Each side's periodic boundary is kept on T as one set of orbit key words
(``shift._orbit_key``), read through the one getter ``_boundary_words``,
which walks the gamma table's cycles at most once per side and type
object.  The first pass of ``refine.corner_refine_along`` keeps its
refined type's words by transport instead, read off its cut lines and the
recodes of its source's words.  Every library reader uses the words:
:func:`has_corner_property` compares the two sets, :func:`classify_code`
looks up the keys of a code's periodic ends, and :func:`cutting_family`
compares a family's orbits with them by key word.  The public
:func:`boundary_orbits`, :func:`per_s_codes`, :func:`per_u_codes` and
:func:`boundary_sets` build orbit objects from the words when called.

A cutting family must avoid the boundary codes, so its check,
:func:`cutting_family`, lives here too, and each refinement, ``u_refine``
included, runs it once per call.  It returns the value of its one lookup
per step as the family's step column, which ``refine.build_order`` keeps
on its order table; on the unstable side the lookups are those of the
time-reversed codes on the inverse type, so the column is that of
``u_refine``'s inner stable pass.  :func:`classify_code`, the library's
one admissibility check of an eventually periodic code, reads the words
as well: the boundary codes are closed under the shift, so a code is an
S- or U-leaf exactly when its periodic end on that side is a boundary
orbit.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import add, attrgetter, itemgetter, not_
from typing import NamedTuple

from .core import (
    GeoTypeError,
    GeometricType,
    HLabel,
    InvariantError,
    _branch_keys,
    invert,
    require_valid,
)
from .shift import (
    AdmissibilityError,
    CodeOrbit,
    EventuallyPeriodicCode,
    PeriodicCode,
    _key_codes,
    _orbit_key,
    binary_branches,
    require_binary,
    require_symbols,
)


class SULabel(NamedTuple):
    i: int
    eps: int


class BoundaryCodeError(GeoTypeError):
    """A cutting family contains a boundary code, which cuts nothing."""


class DuplicateOrbitError(GeoTypeError):
    """A cutting family lists the same shift orbit twice."""


# C-level getters: a code's word, a word's first symbol and the rest
_word = attrgetter("word")
_head = itemgetter(slice(None, 1))
_tail = itemgetter(slice(1, None))


def _slot(T: GeometricType, label: SULabel) -> int:
    """The gamma-table slot of a boundary label: 2(i-1) for (i, -1), 2i-1 for (i, +1)."""
    i, eps = label
    if not (1 <= i <= T.n) or eps not in (1, -1):
        raise ValueError(f"invalid boundary label {label}")
    return 2 * i - 1 if eps == 1 else 2 * i - 2


def theta(T: GeometricType, label: SULabel) -> HLabel:
    """Strip holding the boundary edge: bottom edge -> strip 1, top -> strip h_i."""
    return HLabel(label.i, T.h[label.i - 1] if _slot(T, label) % 2 else 1)


def _label(slot: int) -> SULabel:
    return SULabel(slot // 2 + 1, 1 if slot % 2 else -1)


def gamma_step(T: GeometricType, label: SULabel) -> SULabel:
    """One step of the stable generating function."""
    require_valid(T)
    return _label(T._gamma[_slot(T, label)])


def upsilon_step(T: GeometricType, label: SULabel) -> SULabel:
    """One step of the unstable generating function: gamma on the inverse type."""
    return gamma_step(invert(T), label)


class BoundaryOrbitSummary(NamedTuple):
    """Eventually periodic first-component code of a boundary label's orbit."""

    label: SULabel
    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]
    trace: tuple[SULabel, ...]

    def __str__(self) -> str:
        pre = ",".join(str(s) for s in self.preperiod) or "-"
        cyc = ",".join(str(s) for s in self.cycle)
        sign = "+" if self.label.eps == 1 else "-"
        return f"({self.label.i},{sign}) : pre={pre} cyc={cyc}"


def _orbit_summary(gamma: list[int], slot: int) -> BoundaryOrbitSummary:
    seen: dict[int, int] = {}
    current = slot
    while current not in seen:
        seen[current] = len(seen)
        current = gamma[current]
    word, start = tuple(s // 2 + 1 for s in seen), seen[current]
    return BoundaryOrbitSummary(_label(slot), word[:start], word[start:], tuple(map(_label, seen)))


def s_boundary_positive_code(T: GeometricType, label: SULabel) -> BoundaryOrbitSummary:
    """Iterate gamma from a label until its cycle closes; <= 2n labels appear."""
    require_valid(T)
    return _orbit_summary(T._gamma, _slot(T, label))


def u_boundary_negative_code(T: GeometricType, label: SULabel) -> BoundaryOrbitSummary:
    """Same shape as the stable side; the code reads backward in shift time."""
    return s_boundary_positive_code(invert(T), label)


def boundary_orbits(T: GeometricType, *, unstable: bool = False) -> frozenset[CodeOrbit]:
    """Orbits of the periodic s-boundary (u-boundary when ``unstable``) codes,
    built from the side's kept key words (:func:`_boundary_words`) when
    called.  Raises unless T is valid and binary."""
    return frozenset(map(PeriodicCode.orbit, _key_codes(_boundary_words(T, unstable))))


def _boundary_words(T: GeometricType, unstable: bool) -> frozenset[tuple[int, ...]]:
    """The key words of one side's periodic boundary orbits, kept on T.

    A side that nothing has kept yet is walked (:func:`_cycle_words`) at
    most once per side and type object.  The refined type of the first pass
    of ``refine.corner_refine_along`` is not walked: that pass keeps both
    its sides by transport, the s-side read off its cut lines.  Raises
    unless T is valid and binary (:func:`shift.require_binary`, which
    builds no branch table).
    """
    require_binary(T)
    words = T._boundary_words.get(unstable)
    if words is None:
        words = T._boundary_words[unstable] = _cycle_words(T, unstable)
    return words


def _cycle_words(T: GeometricType, unstable: bool) -> frozenset[tuple[int, ...]]:
    """The key words of the gamma table's cycles, of ``invert(T)`` read
    backward when ``unstable``, since forward time for the inverse is
    backward time for T.  Each walk marks the slots it reaches with its
    start, so it has closed a cycle no earlier walk reached exactly when it
    meets its own mark.  A cycle's rectangle word can be a proper power (two
    of its slots on one rectangle), so it is keyed by its primitive root
    (:func:`shift._orbit_key`); every slot's rectangle s // 2 + 1 lies in
    1..n."""
    gamma = invert(T)._gamma if unstable else T._gamma
    walked = [-1] * len(gamma)  # the start of the walk that reached each slot
    words: set[tuple[int, ...]] = set()
    for start in range(len(gamma)):
        path: list[int] = []
        slot = start
        while walked[slot] < 0:
            walked[slot] = start
            path.append(slot)
            slot = gamma[slot]
        if walked[slot] == start:
            word = tuple(s // 2 + 1 for s in path[path.index(slot):])
            words.add(_orbit_key(word[::-1] if unstable else word))
    return frozenset(words)


def per_s_codes(T: GeometricType) -> frozenset[PeriodicCode]:
    """Pointed periodic codes of all phases of every s-boundary orbit."""
    return frozenset(code for orbit in boundary_orbits(T) for code in orbit.phases())


def per_u_codes(T: GeometricType) -> frozenset[PeriodicCode]:
    """Pointed periodic codes of all phases of every u-boundary orbit, in forward time."""
    return frozenset(code for orbit in boundary_orbits(T, unstable=True) for code in orbit.phases())


class BoundarySets(NamedTuple):
    s_codes: frozenset[PeriodicCode]
    u_codes: frozenset[PeriodicCode]

    @property
    def b_codes(self) -> frozenset[PeriodicCode]:
        return self.s_codes | self.u_codes

    def orbits(self, which: frozenset[PeriodicCode]) -> tuple[CodeOrbit, ...]:
        return tuple(sorted({c.orbit() for c in which}, key=CodeOrbit.sort_key))


def boundary_sets(T: GeometricType) -> BoundarySets:
    return BoundarySets(per_s_codes(T), per_u_codes(T))


def has_corner_property(T: GeometricType) -> bool:
    """True iff every periodic boundary code is both s- and u-boundary."""
    return _boundary_words(T, False) == _boundary_words(T, True)


def cutting_family(
    T: GeometricType, W, *, unstable: bool = False, drop_boundary: bool = False
) -> tuple[PeriodicCode, ...]:
    """The codes of W checked as a stable (or unstable) cutting family of T.

    Every symbol lies in 1..n, the key of every step (w_t, w_{t+1}), wrap
    included, is in the branch table of :func:`shift.binary_branches`
    (looked up only once the symbols are in range, since an out-of-range
    symbol can alias a valid key), no two kept codes share an orbit, and no
    code is an s-boundary (u-boundary when ``unstable``) code.  A boundary code
    is skipped when ``drop_boundary`` is set and raises
    ``BoundaryCodeError`` otherwise.  The whole family is checked at once,
    each check one C-level pass over all codes (:func:`_check_at_once`);
    only when a check fails is W walked code by code, in order
    (:func:`_check_by_code`), which raises the error of its first faulty
    code: a raw word that is no ``PeriodicCode``, a symbol out of range, a
    forbidden step, an orbit listed before, or a boundary orbit; should it
    find none, ``InvariantError``.  Costs O(alpha + sum of periods).  Both
    refinements read the same check through :func:`_checked_family`, which
    also hands on the values of the check's one lookup per step.
    """
    return _checked_family(T, W, unstable=unstable, drop_boundary=drop_boundary)[0]


def _checked_family(
    T: GeometricType, W, *, unstable: bool = False, drop_boundary: bool = False
) -> tuple[tuple[PeriodicCode, ...], list[int]]:
    """:func:`cutting_family` and the family's step column: the signed
    strip e * j that each step (w_t, w_{t+1}) of each kept code runs
    through, code after code, phase by phase, which is the order of the
    flat cut ids of ``refine.OrderTable``.  The column holds the values of
    the at-once check's lookups, so each step is looked up once.  When
    ``unstable``, those lookups are the steps of the time-reversed codes
    (``reversed_pointed``) in ``invert(T)``'s branch table: the inverse's
    incidence matrix is the transpose, so a step of T is admissible
    exactly when its reversal is one of the inverse.  The column is then
    that of the stable pass of ``u_refine`` on the inverse, and T builds
    no branch table, not even when the check fails: the code-by-code walk
    reads the same table and words, and every error names its code in
    forward time.  Both checks compare each orbit with the side's kept
    boundary by its key word, in forward time on both sides."""
    branches = binary_branches(invert(T) if unstable else T)
    boundary = _boundary_words(T, unstable)
    items = list(W)
    checked = _check_at_once(T.n, branches, boundary, items, unstable, drop_boundary)
    if checked is None:
        _check_by_code(T.n, branches, boundary, items, unstable, drop_boundary)
        raise InvariantError("the cutting-family check failed, but no code has a fault")
    return checked


def _check_at_once(
    n: int,
    branches: dict[int, int],
    boundary_words: frozenset[tuple[int, ...]],
    items: list,
    unstable: bool,
    drop_boundary: bool,
) -> tuple[tuple[PeriodicCode, ...], list[int]] | None:
    """:func:`cutting_family` on the whole family and its step column
    (:func:`_checked_family`), or ``None`` when some code fails a check.
    The symbols of all words form one column, checked through the set of
    symbols that occur.  Each step (w_t, w_{t+1}), wrap included, is
    looked up once in ``branches``, the successor column being the words
    rotated by one, which gives the step column, ``None`` at a miss; when
    ``unstable``, the words walked are those of the time-reversed codes
    and ``branches`` is the inverse's table.  Each orbit is compared by
    its key word, a tuple, so the set of those words shows a repeated
    orbit and meets the boundary orbits' key words with no Python-level
    hash.  The phases of dropped boundary codes leave the column by the
    same mask as the codes.  A code flagged as its own least rotation,
    such as an orbit's key code, is its key word, so no orbit object is
    built for it."""
    try:
        codes = [c if isinstance(c, PeriodicCode) else PeriodicCode(tuple(c)) for c in items]
    except (TypeError, ValueError):
        return None
    words = list(map(_word, codes))
    present = set(chain.from_iterable(words))
    if present and (min(present) < 1 or max(present) > n):
        return None
    walked = [code.reversed_pointed().word for code in codes] if unstable else words
    successors = chain.from_iterable(map(add, map(_tail, walked), map(_head, walked)))
    column = list(map(branches.get, _branch_keys(n, chain.from_iterable(walked), successors)))
    if not all(column):  # a miss is None, and every e * j is nonzero
        return None
    orbits = list(map(PeriodicCode._orbit_word, codes))
    distinct = set(orbits)
    if distinct.isdisjoint(boundary_words):
        if len(distinct) != len(codes):
            return None
        kept = tuple(codes)
    elif not drop_boundary:
        return None
    else:
        keep = list(map(not_, map(boundary_words.__contains__, orbits)))
        kept = tuple(compress(codes, keep))
        if len(distinct - boundary_words) != len(kept):
            return None
        column = list(compress(column, chain.from_iterable(map(repeat, keep, map(len, words)))))
    return kept, column


def _check_by_code(
    n: int,
    branches: dict[int, int],
    boundary_words: frozenset[tuple[int, ...]],
    items: list,
    unstable: bool,
    drop_boundary: bool,
) -> None:
    """Walk W code by code, in order, and raise the error of the first
    faulty code; the walk keeps no family.  It reads the table, the walked
    words and the key words that :func:`_check_at_once` reads."""
    seen: set[tuple[int, ...]] = set()
    for code in items:
        if not isinstance(code, PeriodicCode):
            code = PeriodicCode(tuple(code))
        require_symbols(n, code.word)
        word = code.reversed_pointed().word if unstable else code.word
        if not all(map(branches.__contains__, _branch_keys(n, word, word[1:] + word[:1]))):
            raise AdmissibilityError(f"code {code} is not admissible for this type")
        key = code._orbit_word()
        if key in seen:
            raise DuplicateOrbitError(f"duplicate orbit {' '.join(map(str, key))} in cutting family")
        if key in boundary_words:
            if drop_boundary:
                continue
            kind = "u-boundary" if unstable else "s-boundary"
            raise BoundaryCodeError(f"{kind} code {code} in cutting family cuts nothing")
        seen.add(key)


# -- classification of eventually periodic codes -------------------------------


def classify_code(T: GeometricType, code: EventuallyPeriodicCode) -> str:
    """Sort a code L^inf M R^inf into S-leaf / U-leaf / corner-leaf / interior.

    A code is an S-leaf when some forward tail is a stable boundary code,
    the code of a gamma slot; mirrored, backward, for U-leaves.  Gamma maps
    each slot's code to its shift, so the set of those codes is
    shift-invariant and its periodic members are the phases of
    :func:`boundary_orbits`.  A tail of the code is therefore a boundary
    code exactly when its periodic end R^inf is one: the code is an S-leaf
    iff the key word of R's orbit is a kept s-boundary word
    (:func:`_boundary_words`), and a U-leaf iff that of L is a kept
    u-boundary word.  Each transition pair is range-checked before its
    branch-table lookup.
    """
    branches = binary_branches(T)
    rows, targets = zip(*code.transition_pairs())
    for a, b, key in zip(rows, targets, _branch_keys(T.n, rows, targets)):
        if not (1 <= a <= T.n and 1 <= b <= T.n):
            raise AdmissibilityError(f"symbol out of range 1..{T.n}")
        if key not in branches:
            raise AdmissibilityError("code uses transitions forbidden by the incidence matrix")
    is_s = _orbit_key(code.right_cycle) in _boundary_words(T, False)
    is_u = _orbit_key(code.left_cycle) in _boundary_words(T, True)
    if is_s and is_u:
        return "corner-leaf"
    if is_s:
        return "S-leaf"
    if is_u:
        return "U-leaf"
    return "interior"


def boundary_report(T: GeometricType) -> str:
    """Deterministic S/U/B/C report used by the CLI, off one gamma table per
    side and the two sides' key words."""
    s_words, u_words = _boundary_words(T, False), _boundary_words(T, True)
    lines: list[str] = []
    for tag, gamma in (("SLABEL", T._gamma), ("ULABEL", invert(T)._gamma)):
        lines += [f"{tag} {_orbit_summary(gamma, slot)}" for slot in range(len(gamma))]
    for name, group in (
        ("PER-S", s_words),
        ("PER-U", u_words),
        ("PER-B", s_words | u_words),
        ("PER-C", s_words & u_words),
    ):
        for key in _key_codes(group):
            phases = " ; ".join(map(str, sorted(map(key.rotate, range(key.period)), key=_word)))
            lines.append(f"{name} orbit {key} : {phases}")
    lines.append(f"CORNER {'true' if s_words == u_words else 'false'}")
    return "\n".join(lines) + "\n"
