"""
Boundary labels and their generating functions.

Each rectangle contributes two stable boundary labels (i, -1) for the bottom
edge and (i, +1) for the top edge.  The stable generating function follows
the image of those edges one step at a time; iterating it writes down the
eventually periodic code every boundary edge shadows.  The unstable side is
the same construction run on the inverse type.  A cutting family must avoid
these codes, so its check, :func:`cutting_family`, lives here too.
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
    strip = theta(T, label)
    k, _, e = T.phi(strip)
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


def _orbit_summary(T: GeometricType, label: SULabel, step) -> BoundaryOrbitSummary:
    seen: dict[SULabel, int] = {}
    trace: list[SULabel] = []
    current = label
    while current not in seen:
        seen[current] = len(trace)
        trace.append(current)
        current = step(T, current)
    start = seen[current]
    pre = tuple(lab.i for lab in trace[:start])
    cyc = tuple(lab.i for lab in trace[start:])
    return BoundaryOrbitSummary(label, pre, cyc, tuple(trace))


def s_boundary_positive_code(T: GeometricType, label: SULabel) -> BoundaryOrbitSummary:
    """Iterate gamma from a label until its cycle closes; <= 2n labels appear."""
    require_valid(T)
    return _orbit_summary(T, label, gamma_step)


def u_boundary_negative_code(T: GeometricType, label: SULabel) -> BoundaryOrbitSummary:
    """Same shape as the stable side; the code reads backward in shift time."""
    return _orbit_summary(invert(T), label, gamma_step)


def _cycle_words(T: GeometricType, step) -> set[tuple[int, ...]]:
    words: set[tuple[int, ...]] = set()
    for label in su_labels(T):
        summary = _orbit_summary(T, label, step)
        words.add(primitive_root(summary.cycle))
    return words


def per_s_codes(T: GeometricType) -> frozenset[PeriodicCode]:
    """Pointed periodic codes of all phases of every gamma cycle."""
    binary_branches(T)
    codes: set[PeriodicCode] = set()
    for word in _cycle_words(T, gamma_step):
        root = PeriodicCode(word)
        codes.update(root.rotate(t) for t in range(root.period))
    return frozenset(codes)


def per_u_codes(T: GeometricType) -> frozenset[PeriodicCode]:
    """Pointed periodic codes of the upsilon cycles, reversed to forward time."""
    binary_branches(T)
    codes: set[PeriodicCode] = set()
    for word in _cycle_words(invert(T), gamma_step):
        root = PeriodicCode(word).reversed_pointed()
        codes.update(root.rotate(t) for t in range(root.period))
    return frozenset(codes)


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
    sets = boundary_sets(T)
    return sets.b_codes == sets.c_codes


def cutting_family(
    T: GeometricType, W, *, unstable: bool = False, drop_boundary: bool = False
) -> tuple[PeriodicCode, ...]:
    """The codes of W checked as a stable (or unstable) cutting family of T.

    Code by code, in order: every symbol lies in 1..n, every step
    (w_t, w_{t+1}), wrap included, is a key of :func:`shift.binary_branches`,
    no earlier code shares its orbit, and it is not an s-boundary (u-boundary
    when ``unstable``) code.  A boundary code is skipped when
    ``drop_boundary`` is set and raises ``BoundaryCodeError`` otherwise.
    Costs O(alpha + sum of periods) after the boundary codes.
    """
    branches = binary_branches(T)
    boundary = {c.orbit() for c in (per_u_codes(T) if unstable else per_s_codes(T))}
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
    for k in range(len(middle) + len(cycle)):
        if k < len(middle):
            pre = middle[k:]
            cyc = cycle
        else:
            shift = (k - len(middle)) % len(cycle)
            pre = ()
            cyc = cycle[shift:] + cycle[:shift]
        yield canonical_eventually_periodic(pre, cyc)


def _matches_boundary_tail(
    middle: tuple[int, ...],
    cycle: tuple[int, ...],
    summaries: list[BoundaryOrbitSummary],
) -> bool:
    targets = {s.canonical_tail() for s in summaries}
    return any(tail in targets for tail in _tails(middle, cycle))


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
    s_summaries = [s_boundary_positive_code(T, lab) for lab in su_labels(T)]
    u_summaries = [u_boundary_negative_code(T, lab) for lab in su_labels(T)]
    is_s = _matches_boundary_tail(code.middle, code.right_cycle, s_summaries)
    mirrored = code.mirror()
    is_u = _matches_boundary_tail(mirrored.middle, mirrored.right_cycle, u_summaries)
    if is_s and is_u:
        return "corner-leaf"
    if is_s:
        return "S-leaf"
    if is_u:
        return "U-leaf"
    return "interior"


def boundary_report(T: GeometricType) -> str:
    """Deterministic S/U/B/C report used by the CLI."""
    require_valid(T)
    lines: list[str] = []
    for label in sorted(su_labels(T)):
        lines.append("SLABEL " + str(s_boundary_positive_code(T, label)))
    for label in sorted(su_labels(T)):
        lines.append("ULABEL " + str(u_boundary_negative_code(T, label)))
    sets = boundary_sets(T)
    for name, group in (
        ("PER-S", sets.s_codes),
        ("PER-U", sets.u_codes),
        ("PER-B", sets.b_codes),
        ("PER-C", sets.c_codes),
    ):
        for orbit in sets.orbits(group):
            phases = " ; ".join(str(p) for p in sorted(orbit.phases(), key=lambda c: c.word))
            lines.append(f"{name} orbit {orbit.canonical} : {phases}")
    lines.append(f"CORNER {'true' if sets.b_codes == sets.c_codes else 'false'}")
    return "\n".join(lines) + "\n"
