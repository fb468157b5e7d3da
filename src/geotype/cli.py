"""
Batch command-line surface.

stdout carries canonical artifacts only (types, code lists, reports); all
diagnostics go to stderr so outputs can be golden-tested byte for byte.
Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, takewhile
from pathlib import Path

from . import core, boundary, oracle, refine, shift
from .core import GeoTypeError, GeometricType, ParseError
from .shift import EventuallyPeriodicCode


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


def _load_type(path: str) -> GeometricType:
    return core.parse(_read(path))


def _load_leading_type(path: str) -> GeometricType:
    """Parse the GEOTYPE block at the head of a type or refinement file: its
    first four lines and the ``map`` lines after them."""
    lines = _read(path).splitlines()
    maps = takewhile(lambda line: line.startswith("map "), lines[4:])
    return core.parse("\n".join(chain(lines[:4], maps)) + "\n")


def _load_codes(path: str) -> tuple[shift.PeriodicCode, ...]:
    return shift.parse_codes(_read(path))


def _parse_code_spec(spec: str) -> EventuallyPeriodicCode:
    parts = spec.split("|")
    if len(parts) != 3:
        raise ParseError("code spec must be '<left cycle> | <middle> | <right cycle>'")
    try:
        left, middle, right = (tuple(int(tok) for tok in part.split()) for part in parts)
    except ValueError:
        raise ParseError("code spec symbols must be integers") from None
    try:
        return EventuallyPeriodicCode(left, middle, right)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geotype",
        description="Geometric types of Markov partitions: validation, codes, refinements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, **kwargs)

    add("validate", help="check the geometric-type invariants").add_argument("type")
    add("invert", help="emit the inverse type").add_argument("type")
    add("alpha", help="emit the number of sub-rectangles").add_argument("type")

    p = add("incidence", help="emit the incidence matrix")
    p.add_argument("type")
    p.add_argument("--check", choices=["binary", "mixing"])

    p = add("orbits", help="enumerate periodic orbits up to a period bound")
    p.add_argument("type")
    p.add_argument("--max-period", type=int, required=True)

    add("bin", help="emit the binary refinement").add_argument("type")
    add("codes", help="emit the boundary-code report").add_argument("type")

    p = add("classify", help="classify an eventually periodic code")
    p.add_argument("type")
    p.add_argument("--code", required=True, metavar="'L | M | R'")

    for name in ("srefine", "urefine"):
        p = add(name, help=f"{name[0]}-boundary refinement along a code file")
        p.add_argument("type")
        p.add_argument("--codes", required=True)
        p.add_argument("--drop-boundary", action="store_true")

    p = add("corner", help="corner refinement")
    p.add_argument("type")
    p.add_argument("--along")

    p = add("wp", help="corner refinement along all orbits of bounded period")
    p.add_argument("type")
    p.add_argument("--max-period", type=int, required=True)

    p = add("oracle-check", help="diff the formula engine against the affine oracle")
    p.add_argument("type")
    p.add_argument("--codes", required=True)

    p = add("render", help="emit a diagram of a type (or of a result's type)")
    p.add_argument("type")
    p.add_argument("--format", choices=["dot", "svg"], required=True)
    p.add_argument("--codes")
    return parser


def _run(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "validate":
        report = core.validate(_load_type(args.type))
        if report.ok:
            _emit("ok\n")
            return 0
        _emit("".join(f"violation: {v}\n" for v in report.violations))
        return 1
    if cmd == "invert":
        _emit(core.serialize(core.invert(_load_type(args.type))))
        return 0
    if cmd == "alpha":
        _emit(f"{core.alpha(_load_type(args.type))}\n")
        return 0
    if cmd == "incidence":
        A = shift.incidence_matrix(_load_type(args.type))
        if args.check == "binary":
            _emit(f"{'true' if shift.is_binary(A) else 'false'}\n")
        elif args.check == "mixing":
            _emit(f"{'true' if shift.is_mixing(A) else 'false'}\n")
        else:
            for row in A._text_rows():
                _emit(row + "\n")
        return 0
    if cmd == "orbits":
        A = shift.incidence_matrix(_load_type(args.type))
        orbits = shift.enumerate_orbits(A, args.max_period)
        _emit(shift.serialize_codes(o.canonical for o in orbits))
        return 0
    if cmd == "bin":
        _emit(core.serialize(refine.bin_refine(_load_type(args.type)).refined))
        return 0
    if cmd == "codes":
        _emit(boundary.boundary_report(_load_type(args.type)))
        return 0
    if cmd == "classify":
        verdict = boundary.classify_code(_load_type(args.type), _parse_code_spec(args.code))
        _emit(verdict + "\n")
        return 0
    if cmd in ("srefine", "urefine"):
        T = _load_type(args.type)
        W = _load_codes(args.codes)
        op = refine.s_refine if cmd == "srefine" else refine.u_refine
        result = op(T, W, drop_boundary=args.drop_boundary)
        dropped = len(W) - len(result.order.family)
        if args.drop_boundary and dropped:
            print(f"warning: dropped {dropped} boundary code(s)", file=sys.stderr)
        _emit(refine.serialize_result(result))
        return 0
    if cmd == "corner":
        T = _load_type(args.type)
        if args.along:
            result = refine.corner_refine_along(T, _load_codes(args.along))
        else:
            result = refine.corner_refine(T)
        _emit(refine.serialize_result(result))
        return 0
    if cmd == "wp":
        _emit(refine.serialize_result(refine.wp_refine(_load_type(args.type), args.max_period)))
        return 0
    if cmd == "oracle-check":
        T = _load_type(args.type)
        W = _load_codes(args.codes)
        formula = refine.s_refine(T, W)
        geometric = oracle.oracle_s_refine(T, W)
        mismatches = []
        if formula.refined != geometric.refined:
            mismatches.append("refined types differ")
        if formula.label_map != geometric.label_map:
            mismatches.append("label maps differ")
        if mismatches:
            for line in mismatches:
                print(f"oracle mismatch: {line}", file=sys.stderr)
            return 1
        _emit(core.serialize(formula.refined))
        return 0
    if cmd == "render":
        T = _load_leading_type(args.type)
        if args.format == "dot":
            _emit(shift.incidence_dot(shift.incidence_matrix(T)))
        else:
            W = _load_codes(args.codes) if args.codes else ()
            _emit(oracle.model_svg(T, W))
        return 0
    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_period", 0) < 0:
        parser.error("--max-period must be nonnegative")
    color = os.environ.get("GEOTYPE_COLOR") == "1"
    try:
        return _run(args)
    except GeoTypeError as exc:
        name = type(exc).__name__
        prefix = f"\x1b[31m{name}\x1b[0m" if color else name
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
