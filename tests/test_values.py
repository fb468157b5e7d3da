"""The value semantics of the package's fifteen record classes.

Each class is pinned on a small instance: its constructor's parameters and
defaults, construction by position and by keyword, ``==`` and ``!=`` when
one field changes, ``hash`` as the hash of the tuple of compared fields (or
unhashable, as that tuple is), the exact ``repr``, immutability, a pickle
round trip, and that kept facts (and ``OrderTable.steps``) stay out of
``==``, ``hash`` and ``repr``.
"""

from __future__ import annotations

import inspect
import pickle
from fractions import Fraction
from typing import Any, NamedTuple

import pytest

from geotype import (
    BinRefinement,
    BoundaryOrbitSummary,
    BoundarySets,
    CodeOrbit,
    EventuallyPeriodicCode,
    GeometricType,
    HLabel,
    IncidenceMatrix,
    PeriodicCode,
    SULabel,
    ValidationReport,
)
from geotype.oracle import AffineModel, OracleRefinement, RationalPoint
from geotype.refine import IntervalRef, OrderTable, RefinementResult

T1 = GeometricType((1,), (1,), ((1, 1),), (1,))
T1_TEXT = "GeometricType(h=(1,), v=(1,), rho=(VLabel(k=1, l=1),), eps=(1,))"
W12 = PeriodicCode((1, 2))
ORDER = OrderTable((W12,), ((0,), (1,)), [1, -1])
ORDER_TEXT = "OrderTable(family=(PeriodicCode(word=(1, 2)),), cuts=((0,), (1,)))"
REQUIRED = inspect.Parameter.empty


class Case(NamedTuple):
    cls: type
    params: dict[str, Any]  # every constructor argument, in order, with its default or REQUIRED
    args: tuple  # a value for each argument, in order
    changed: dict[str, Any]  # per argument, a value that makes an unequal record
    text: str  # the exact repr
    compared: tuple[str, ...]  # the members that ==, hash and repr read
    kept: tuple[str, ...] = ()  # kept facts, out of ==, hash and repr


CASES = [
    Case(
        GeometricType,
        dict.fromkeys(("h", "v", "rho", "eps"), REQUIRED),
        ((2, 1), (1, 2), ((2, 1), (1, 1), (2, 2)), (1, -1, 1)),
        {"h": (1, 2), "v": (1, 3), "rho": ((2, 2), (1, 1), (2, 1)), "eps": (1, 1, 1)},
        "GeometricType(h=(2, 1), v=(1, 2), rho=(VLabel(k=2, l=1), VLabel(k=1, l=1), "
        "VLabel(k=2, l=2)), eps=(1, -1, 1))",
        ("h", "v", "_slots", "eps"),
        ("rho", "_report", "_offsets", "_inverse", "_branches", "_binary", "_gamma", "_boundary_words"),
    ),
    Case(
        ValidationReport,
        dict.fromkeys(("ok", "violations"), REQUIRED),
        (True, ()),
        {"ok": False, "violations": ("Σh ≠ Σv (1 ≠ 2)",)},
        "ValidationReport(ok=True, violations=())",
        ("ok", "violations"),
    ),
    Case(
        PeriodicCode,
        {"word": REQUIRED},
        ((1, 2),),
        {"word": (1, 2, 2)},
        "PeriodicCode(word=(1, 2))",
        ("word",),
        ("_orbit",),
    ),
    Case(
        CodeOrbit,
        {"canonical": REQUIRED},
        (PeriodicCode((2, 1)),),
        {"canonical": PeriodicCode((1, 2, 2))},
        "CodeOrbit(canonical=PeriodicCode(word=(1, 2)))",
        ("canonical",),
    ),
    Case(
        EventuallyPeriodicCode,
        dict.fromkeys(("left_cycle", "middle", "right_cycle"), REQUIRED),
        ((1,), (2,), (1, 2)),
        {"left_cycle": (2,), "middle": (), "right_cycle": (2, 1)},
        "EventuallyPeriodicCode(left_cycle=(1,), middle=(2,), right_cycle=(1, 2))",
        ("left_cycle", "middle", "right_cycle"),
    ),
    Case(
        IncidenceMatrix,
        {"succ": REQUIRED},
        (({1: 1, 2: 1}, {1: 1}),),
        {"succ": ({2: 1}, {1: 1})},
        "IncidenceMatrix(succ=({1: 1, 2: 1}, {1: 1}))",
        ("succ",),
    ),
    Case(
        BoundaryOrbitSummary,
        dict.fromkeys(("label", "preperiod", "cycle", "trace"), REQUIRED),
        (SULabel(1, -1), (1,), (2,), (SULabel(1, -1), SULabel(2, 1))),
        {"label": SULabel(1, 1), "preperiod": (), "cycle": (1,), "trace": (SULabel(2, 1),)},
        "BoundaryOrbitSummary(label=SULabel(i=1, eps=-1), preperiod=(1,), cycle=(2,), "
        "trace=(SULabel(i=1, eps=-1), SULabel(i=2, eps=1)))",
        ("label", "preperiod", "cycle", "trace"),
    ),
    Case(
        BoundarySets,
        dict.fromkeys(("s_codes", "u_codes"), REQUIRED),
        (frozenset({PeriodicCode((1,))}), frozenset()),
        {"s_codes": frozenset(), "u_codes": frozenset({W12})},
        "BoundarySets(s_codes=frozenset({PeriodicCode(word=(1,))}), u_codes=frozenset())",
        ("s_codes", "u_codes"),
    ),
    Case(
        BinRefinement,
        dict.fromkeys(("refined", "label_map"), REQUIRED),
        (T1, (HLabel(1, 1),)),
        {"refined": GeometricType((1,), (1,), ((1, 1),), (-1,)), "label_map": (HLabel(1, 2),)},
        f"BinRefinement(refined={T1_TEXT}, label_map=(HLabel(i=1, j=1),))",
        ("refined", "label_map"),
    ),
    Case(
        IntervalRef,
        dict.fromkeys(("t", "code"), REQUIRED),
        (1, W12),
        {"t": 0, "code": PeriodicCode((2, 2, 1))},
        "IntervalRef(t=1, code=PeriodicCode(word=(1, 2)))",
        ("t", "code"),
    ),
    Case(
        OrderTable,
        dict.fromkeys(("family", "cuts", "steps"), REQUIRED),
        ((W12,), ((0,), (1,)), [1, -1]),
        {"family": (PeriodicCode((2, 1)),), "cuts": ((), (0, 1))},
        ORDER_TEXT,
        ("family", "cuts"),
        ("_starts", "entries"),
    ),
    Case(
        RefinementResult,
        {"refined": REQUIRED, "source": REQUIRED, "kind": REQUIRED, "order": None, "stages": ()},
        (T1, T1, "s", ORDER, ()),
        {
            "refined": GeometricType((1,), (1,), ((1, 1),), (-1,)),
            "source": GeometricType((1,), (1,), ((1, 1),), (-1,)),
            "kind": "u",
            "order": None,
            "stages": (RefinementResult(T1, T1, "s"),),
        },
        f"RefinementResult(refined={T1_TEXT}, source={T1_TEXT}, kind='s', order={ORDER_TEXT}, stages=())",
        ("refined", "source", "kind", "order", "stages"),
        ("label_map", "_band_starts"),
    ),
    Case(
        RationalPoint,
        dict.fromkeys(("square", "x", "y"), REQUIRED),
        (1, Fraction(1, 2), Fraction(1, 3)),
        {"square": 2, "x": Fraction(1, 3), "y": Fraction(1, 2)},
        "RationalPoint(square=1, x=Fraction(1, 2), y=Fraction(1, 3))",
        ("square", "x", "y"),
    ),
    Case(
        AffineModel,
        dict.fromkeys(("source", "a", "b", "k", "l"), REQUIRED),
        (T1, (1,), (0,), (1,), (1,)),
        {"source": GeometricType((1,), (1,), ((1, 1),), (-1,)), "a": (-1,), "b": (1,), "k": (2,), "l": (2,)},
        f"AffineModel(source={T1_TEXT}, a=(1,), b=(0,), k=(1,), l=(1,))",
        ("source", "a", "b", "k", "l"),
        ("_branches",),
    ),
    Case(
        OracleRefinement,
        dict.fromkeys(("refined", "label_map", "_rows", "_nums", "_dens", "_phases", "_codes"), REQUIRED),
        (T1, ((1, 1),), ([0],), [1], [2], [0], [PeriodicCode((1,))]),
        {
            "refined": GeometricType((1,), (1,), ((1, 1),), (-1,)),
            "label_map": ((1, 2),),
            "_rows": ([],),
            "_nums": [2],
            "_dens": [3],
            "_phases": [1],
            "_codes": [W12],
        },
        f"OracleRefinement(refined={T1_TEXT}, label_map=((1, 1),), _rows=([0],), _nums=[1], _dens=[2], "
        "_phases=[0], _codes=[PeriodicCode(word=(1,))])",
        ("refined", "label_map", "_rows", "_nums", "_dens", "_phases", "_codes"),
        ("cut_heights",),
    ),
]


@pytest.fixture(params=CASES, ids=lambda case: case.cls.__name__)
def case(request) -> Case:
    return request.param


def make(case: Case):
    return case.cls(*case.args)


def expected_hash(record, compared: tuple[str, ...]):
    """``hash`` of the tuple of compared members, or ``TypeError`` when that
    tuple is unhashable."""
    try:
        return hash(tuple(getattr(record, name) for name in compared))
    except TypeError:
        return TypeError


def hash_of(record):
    try:
        return hash(record)
    except TypeError:
        return TypeError


def test_the_fifteen_classes_are_pinned():
    assert len({case.cls for case in CASES}) == 15


def test_constructor_parameters_and_defaults(case):
    parameters = inspect.signature(case.cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default) for name, default in case.params.items()
    ]


def test_construction_by_position_and_by_keyword(case):
    record = make(case)
    assert type(record) is case.cls
    assert case.cls(**dict(zip(case.params, case.args))) == record
    defaulted = [name for name, default in case.params.items() if default is not REQUIRED]
    if defaulted:
        required = len(case.params) - len(defaulted)
        with_defaults = case.args[:required] + tuple(case.params[name] for name in defaulted)
        assert case.cls(*case.args[:required]) == case.cls(*with_defaults)


def test_one_changed_field_makes_a_different_record(case):
    record = make(case)
    assert record == make(case) and not record != make(case)
    assert set(case.changed) == set(case.params) - {"steps"}
    for name, value in case.changed.items():
        other = case.cls(**{**dict(zip(case.params, case.args)), name: value})
        assert other != record and not other == record, name


def test_hash_is_the_hash_of_the_compared_fields(case):
    record = make(case)
    assert hash_of(record) == expected_hash(record, case.compared)
    if case.cls is IncidenceMatrix:
        assert hash_of(record) is TypeError


def test_exact_repr(case):
    assert repr(make(case)) == case.text


def test_assignment_and_deletion_raise(case):
    record, name = make(case), case.compared[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, name) is before and record == make(case)


def test_pickle_round_trip(case):
    record = make(case)
    for name in case.kept:
        getattr(record, name)
    for copy in (pickle.loads(pickle.dumps(record)), pickle.loads(pickle.dumps(make(case)))):
        assert type(copy) is case.cls and copy == record and repr(copy) == case.text


def test_kept_facts_stay_out_of_eq_hash_and_repr(case):
    record, twin = make(case), make(case)
    for name in case.kept:
        getattr(record, name)
        assert name in vars(record), name
        assert name not in vars(twin), name
    assert record == twin and hash_of(record) == hash_of(twin) and repr(record) == case.text


def test_order_table_steps_stay_out_of_eq_hash_and_repr():
    other = OrderTable(ORDER.family, ORDER.cuts, [9])
    assert other == ORDER and hash(other) == hash(ORDER) and repr(other) == repr(ORDER) == ORDER_TEXT
    assert other.steps == [9] and ORDER.steps == [1, -1]


def test_least_flag_of_a_code_stays_out_of_eq_hash_and_repr():
    flagged = PeriodicCode._of((1, 2), True)
    assert flagged == W12 and hash(flagged) == hash(W12) and repr(flagged) == repr(W12)
    assert flagged._least and not W12._least
