"""
Boundary labels and their generating functions.

Each rectangle contributes two stable boundary labels (i, -1) for the bottom
edge and (i, +1) for the top edge.  The stable generating function gamma
follows the image of those edges one step at a time; iterating it writes
down the eventually periodic code every boundary edge shadows.  The unstable
side is the same construction run on the inverse type, read backward.
Every boundary code comes from one gamma table per side, gamma on the 2n
labels: label summaries walk it, and :func:`boundary_orbits`, the
orbit-level entry point, reads off its cycles.  :func:`per_s_codes`,
:func:`per_u_codes` and :func:`boundary_sets` are their all-phase views.  A
cutting family must avoid these codes, so its check, :func:`cutting_family`,
lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import GeoTypeError, GeometricType, HLabel, invert, require_valid
from .shift import (
    AdmissibilityError,
    CodeOrbit,
    EventuallyPeriodicCode,
    PeriodicCode,
    binary_branches,
    binary_incidence,
    is_admissible_eventually_periodic,
    primitive_root,
)


class BoundaryCodeError(GeoTypeError):
    """A cutting family contains a boundary code, which cuts nothing."""


class DuplicateOrbitError(GeoTypeError):
    """A cutting family lists the same shift orbit twice."""


class SULabel(NamedTuple):
    i: int
    eps: int


def _check_label(T: GeometricType, label: SULabel) -> None:
    if not (1 <= label.i <= T.n) or label.eps not in (1, -1):
        raise ValueError(f"invalid boundary label {label}")


def su_labels(T: GeometricType) -> tuple[SULabel, ...]:
    return tuple(SULabel(i, e) for i in range(1, T.n + 1) for e in (-1, 1))


def theta(T: GeometricType, label: SULabel) -> HLabel:
    """Strip holding the boundary edge: bottom edge -> strip 1, top -> strip h_i."""
    _check_label(T, label)
    return HLabel(label.i, 1 if label.eps == -1 else T.h[label.i - 1])


def gamma_step(T: GeometricType, label: SULabel) -> SULabel:
    """One step of the stable generating function."""
    require_valid(T)
    k, _, e = T.phi(theta(T, label))
    return SULabel(k, label.eps * e)


def upsilon_step(T: GeometricType, label: SULabel) -> SULabel:
    """One step of the unstable generating function: gamma on the inverse type."""
    return gamma_step(invert(T), label)


@dataclass(frozen=True)
class BoundaryOrbitSummary:
    """Eventually periodic first-component code of a boundary label's orbit."""

    label: SULabel
    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]
    trace: tuple[SULabel, ...]

    def canonical_tail(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return canonical_eventually_periodic(self.preperiod, self.cycle)

    def __str__(self) -> str:
        pre = ",".join(str(s) for s in self.preperiod) or "-"
        cyc = ",".join(str(s) for s in self.cycle)
        sign = "+" if self.label.eps == 1 else "-"
        return f"({self.label.i},{sign}) : pre={pre} cyc={cyc}"


def canonical_eventually_periodic(
    pre: tuple[int, ...], cyc: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique minimal (preperiod, primitive cycle) representation of pre + cyc^inf."""
    root = list(primitive_root(cyc))
    head = list(pre)
    while head and head[-1] == root[-1]:
        head.pop()
        root = [root[-1]] + root[:-1]
    return tuple(head), tuple(root)


class _GammaTable(dict):
    """gamma on the 2n boundary labels of T; each step is taken once, on first lookup."""

    def __init__(self, T: GeometricType) -> None:
        super().__init__()
        self.T = T

    def __missing__(self, label: SULabel) -> SULabel:
        self[label] = gamma_step(self.T, label)
        return self[label]


def _orbit_summary(table: _GammaTable, label: SULabel) -> BoundaryOrbitSummary:
    seen: dict[SULabel, int] = {}
    trace: list[SULabel] = []
    current = label
    while current not in seen:
        seen[current] = len(trace)
        trace.append(current)
        current = table[current]
    start = seen[current]
    pre = tuple(lab.i for lab in trace[:start])
    cyc = tuple(lab.i for lab in trace[start:])
    return BoundaryOrbitSummary(label, pre, cyc, tuple(trace))


def s_boundary_positive_code(T: GeometricType, label: SULabel) -> BoundaryOrbitSummary:
    """Iterate gamma from a label until its cycle closes; <= 2n labels appear."""
    require_valid(T)
    _check_label(T, label)
    return _orbit_summary(_GammaTable(T), label)


def u_boundary_negative_code(T: GeometricType, label: SULabel) -> BoundaryOrbitSummary:
    """Same shape as the stable side; the code reads backward in shift time."""
    return s_boundary_positive_code(invert(T), label)


def _table_orbits(table: _GammaTable, unstable: bool) -> frozenset[CodeOrbit]:
    """Orbits of the table's cycles, each cycle read backward when ``unstable``.

    Each of the 2n labels is stepped from once, by this walk or an earlier
    lookup, so a table that has already been walked costs no new step.
    """
    walked: set[SULabel] = set()
    orbits: set[CodeOrbit] = set()
    for start in su_labels(table.T):
        path: list[SULabel] = []
        label = start
        while label not in walked:
            walked.add(label)
            path.append(label)
            label = table[label]
        if label in path:  # this walk closed a cycle no earlier walk reached
            word = tuple(lab.i for lab in path[path.index(label):])
            orbits.add(CodeOrbit.from_word(primitive_root(word[::-1] if unstable else word)))
    return frozenset(orbits)


def boundary_orbits(T: GeometricType, *, unstable: bool = False) -> frozenset[CodeOrbit]:
    """Orbits of the periodic s-boundary (u-boundary when ``unstable``) codes.

    They are the cycles of the gamma table.  The u-side cycles are those of
    the inverse type read backward, since forward time for the inverse is
    backward time for T.  Raises unless T is valid and binary.
    """
    binary_branches(T)
    return _table_orbits(_GammaTable(invert(T) if unstable else T), unstable)


def per_s_codes(T: GeometricType) -> frozenset[PeriodicCode]:
    """Pointed periodic codes of all phases of every s-boundary orbit."""
    return frozenset(code for orbit in boundary_orbits(T) for code in orbit.phases())


def per_u_codes(T: GeometricType) -> frozenset[PeriodicCode]:
    """Pointed periodic codes of all phases of every u-boundary orbit, in forward time."""
    return frozenset(code for orbit in boundary_orbits(T, unstable=True) for code in orbit.phases())


@dataclass(frozen=True)
class BoundarySets:
    s_codes: frozenset[PeriodicCode]
    u_codes: frozenset[PeriodicCode]

    @property
    def b_codes(self) -> frozenset[PeriodicCode]:
        return self.s_codes | self.u_codes

    @property
    def c_codes(self) -> frozenset[PeriodicCode]:
        return self.s_codes & self.u_codes

    def orbits(self, which: frozenset[PeriodicCode]) -> tuple[CodeOrbit, ...]:
        return tuple(sorted({c.orbit() for c in which}, key=CodeOrbit.sort_key))


def boundary_sets(T: GeometricType) -> BoundarySets:
    return BoundarySets(per_s_codes(T), per_u_codes(T))


def has_corner_property(T: GeometricType) -> bool:
    """True iff every periodic boundary code is both s- and u-boundary."""
    return boundary_orbits(T) == boundary_orbits(T, unstable=True)


def cutting_family(
    T: GeometricType, W, *, unstable: bool = False, drop_boundary: bool = False
) -> tuple[PeriodicCode, ...]:
    """The codes of W checked as a stable (or unstable) cutting family of T.

    Code by code, in order: every symbol lies in 1..n, every step
    (w_t, w_{t+1}), wrap included, is a key of :func:`shift.binary_branches`,
    no earlier code shares its orbit, and it is not an s-boundary (u-boundary
    when ``unstable``) code.  A boundary code is skipped when
    ``drop_boundary`` is set and raises ``BoundaryCodeError`` otherwise.
    Costs O(alpha + sum of periods).
    """
    branches = binary_branches(T)
    boundary = boundary_orbits(T, unstable=unstable)
    family: list[PeriodicCode] = []
    seen: set[CodeOrbit] = set()
    for code in W:
        if not isinstance(code, PeriodicCode):
            code = PeriodicCode(tuple(code))
        word = code.word
        if any(not 1 <= s <= T.n for s in word):
            raise AdmissibilityError(f"symbol out of range 1..{T.n} in word {word}")
        if any(step not in branches for step in zip(word, word[1:] + word[:1])):
            raise AdmissibilityError(f"code {code} is not admissible for this type")
        orbit = code.orbit()
        if orbit in seen:
            raise DuplicateOrbitError(f"duplicate orbit {orbit.canonical} in cutting family")
        if orbit in boundary:
            if drop_boundary:
                continue
            kind = "u-boundary" if unstable else "s-boundary"
            raise BoundaryCodeError(f"{kind} code {code} in cutting family cuts nothing")
        seen.add(orbit)
        family.append(code)
    return tuple(family)


# -- classification of eventually periodic codes -------------------------------


def _tails(middle: tuple[int, ...], cycle: tuple[int, ...]):
    """Distinct positive tails (as canonical eventually periodic pairs)."""
    for k in range(len(middle)):
        yield canonical_eventually_periodic(middle[k:], cycle)
    for k in range(len(cycle)):
        yield canonical_eventually_periodic((), cycle[k:] + cycle[:k])


def _has_boundary_tail(code: EventuallyPeriodicCode, table: _GammaTable) -> bool:
    """True iff a positive tail of the code is the code of a label of the table."""
    targets = {_orbit_summary(table, label).canonical_tail() for label in su_labels(table.T)}
    return any(tail in targets for tail in _tails(code.middle, code.right_cycle))


def classify_code(T: GeometricType, code: EventuallyPeriodicCode) -> str:
    """Sort a code into S-leaf / U-leaf / corner-leaf / interior.

    A code is an S-leaf when some forward shift has positive part equal to a
    stable boundary code; mirrored for U-leaves.  Eventually periodic tails
    are compared through their unique canonical form, so the bounded window
    of one aligned super-period decides equality.
    """
    A = binary_incidence(T)
    if not is_admissible_eventually_periodic(A, code):
        raise AdmissibilityError("code uses transitions forbidden by the incidence matrix")
    is_s = _has_boundary_tail(code, _GammaTable(T))
    is_u = _has_boundary_tail(code.mirror(), _GammaTable(invert(T)))
    if is_s and is_u:
        return "corner-leaf"
    if is_s:
        return "S-leaf"
    if is_u:
        return "U-leaf"
    return "interior"


def boundary_report(T: GeometricType) -> str:
    """Deterministic S/U/B/C report used by the CLI, off one gamma table per side."""
    require_valid(T)
    lines: list[str] = []
    s_table, u_table = _GammaTable(T), _GammaTable(invert(T))
    for tag, table in (("SLABEL", s_table), ("ULABEL", u_table)):
        lines += [f"{tag} {_orbit_summary(table, label)}" for label in sorted(su_labels(T))]
    binary_branches(T)  # the orbits are read for binary types only, as in boundary_orbits
    s_orbits = _table_orbits(s_table, unstable=False)
    u_orbits = _table_orbits(u_table, unstable=True)
    for name, group in (
        ("PER-S", s_orbits),
        ("PER-U", u_orbits),
        ("PER-B", s_orbits | u_orbits),
        ("PER-C", s_orbits & u_orbits),
    ):
        for orbit in sorted(group, key=CodeOrbit.sort_key):
            phases = " ; ".join(str(p) for p in sorted(orbit.phases(), key=lambda c: c.word))
            lines.append(f"{name} orbit {orbit.canonical} : {phases}")
    lines.append(f"CORNER {'true' if s_orbits == u_orbits else 'false'}")
    return "\n".join(lines) + "\n"
