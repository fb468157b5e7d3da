"""
Batch command-line surface.

stdout carries canonical artifacts only (types, code lists, reports); all
diagnostics go to stderr so outputs can be golden-tested byte for byte.
Exit codes: 0 success, 1 domain error, 2 usage or parse error.

Each subcommand is declared once, by :func:`_command` on its handler: its
name, help line and flags.  A handler takes the parsed arguments and returns
its stdout as a string, as an iterable of chunks other than a tuple (the
rows of ``incidence``), or as ``(text, exit code)`` when it exits nonzero
without raising (``validate``, ``oracle-check``).  :func:`main` is the one
writer of stdout and the one place a ``GeoTypeError`` becomes an exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import chain, takewhile
from pathlib import Path
from typing import Callable, Iterator

from . import core, boundary, oracle, refine, shift
from .core import GeoTypeError, GeometricType, ParseError


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


def _parse_code_spec(spec: str) -> shift.EventuallyPeriodicCode:
    parts = spec.split("|")
    if len(parts) != 3:
        raise ParseError("code spec must be '<left cycle> | <middle> | <right cycle>'")
    try:
        left, middle, right = (tuple(int(tok) for tok in part.split()) for part in parts)
    except ValueError:
        raise ParseError("code spec symbols must be integers") from None
    try:
        return shift.EventuallyPeriodicCode(left, middle, right)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_COMMANDS: list[tuple[str, str, dict[str, dict], Callable]] = []  # in help order


def _command(name: str, summary: str, **flags: dict) -> Callable:
    """Declare subcommand ``name`` with its help line and, after the type
    file every command reads, its flags: ``max_period={...}`` is
    ``--max-period`` with those ``add_argument`` options.  Applied to a
    handler, it records the declaration and returns the handler."""

    def declare(run: Callable) -> Callable:
        _COMMANDS.append((name, summary, flags, run))
        return run

    return declare


@_command("validate", "check the geometric-type invariants")
def _validate(args: argparse.Namespace) -> tuple[str | Iterator[str], int]:
    report = core.validate(_load_type(args.type))
    if report.ok:
        return "ok\n", 0
    return (f"violation: {v}\n" for v in report.violations), 1


@_command("invert", "emit the inverse type")
def _invert(args: argparse.Namespace) -> str:
    return core.serialize(core.invert(_load_type(args.type)))


@_command("alpha", "emit the number of sub-rectangles")
def _alpha(args: argparse.Namespace) -> str:
    return f"{core.alpha(_load_type(args.type))}\n"


@_command("incidence", "emit the incidence matrix", check=dict(choices=["binary", "mixing"]))
def _incidence(args: argparse.Namespace) -> str | Iterator[str]:
    A = shift.incidence_matrix(_load_type(args.type))
    if args.check:
        holds = shift.is_binary(A) if args.check == "binary" else shift.is_mixing(A)
        return "true\n" if holds else "false\n"
    return (row + "\n" for row in A._text_rows())


_PERIOD = dict(type=int, required=True)  # --max-period of orbits and wp


@_command("orbits", "enumerate periodic orbits up to a period bound", max_period=_PERIOD)
def _orbits(args: argparse.Namespace) -> str:
    orbits = shift.enumerate_orbits(shift.incidence_matrix(_load_type(args.type)), args.max_period)
    return shift.serialize_codes(o.canonical for o in orbits)


@_command("bin", "emit the binary refinement")
def _bin(args: argparse.Namespace) -> str:
    return core.serialize(refine.bin_refine(_load_type(args.type)).refined)


@_command("codes", "emit the boundary-code report")
def _codes(args: argparse.Namespace) -> str:
    return boundary.boundary_report(_load_type(args.type))


@_command("classify", "classify an eventually periodic code", code=dict(required=True, metavar="'L | M | R'"))
def _classify(args: argparse.Namespace) -> str:
    return boundary.classify_code(_load_type(args.type), _parse_code_spec(args.code)) + "\n"


def _refine(op: Callable, args: argparse.Namespace) -> str:
    """``srefine`` and ``urefine``: ``op`` is ``refine.s_refine`` or ``refine.u_refine``."""
    T = _load_type(args.type)
    W = _load_codes(args.codes)
    result = op(T, W, drop_boundary=args.drop_boundary)
    if args.drop_boundary and (dropped := len(W) - len(result.order.family)):
        print(f"warning: dropped {dropped} boundary code(s)", file=sys.stderr)
    return refine.serialize_result(result)


_REFINE = dict(codes=dict(required=True), drop_boundary=dict(action="store_true"))
_command("srefine", "s-boundary refinement along a code file", **_REFINE)(partial(_refine, refine.s_refine))
_command("urefine", "u-boundary refinement along a code file", **_REFINE)(partial(_refine, refine.u_refine))


@_command("corner", "corner refinement", along={})
def _corner(args: argparse.Namespace) -> str:
    T = _load_type(args.type)
    result = refine.corner_refine_along(T, _load_codes(args.along)) if args.along else refine.corner_refine(T)
    return refine.serialize_result(result)


@_command("wp", "corner refinement along all orbits of bounded period", max_period=_PERIOD)
def _wp(args: argparse.Namespace) -> str:
    return refine.serialize_result(refine.wp_refine(_load_type(args.type), args.max_period))


@_command("oracle-check", "diff the formula engine against the affine oracle", codes=dict(required=True))
def _oracle_check(args: argparse.Namespace) -> tuple[str, int]:
    T, W = _load_type(args.type), _load_codes(args.codes)
    formula, geometric = refine.s_refine(T, W), oracle.oracle_s_refine(T, W)
    mismatches = []
    if formula.refined != geometric.refined:
        mismatches.append("refined types differ")
    if formula.label_map != geometric.label_map:
        mismatches.append("label maps differ")
    for line in mismatches:
        print(f"oracle mismatch: {line}", file=sys.stderr)
    return ("", 1) if mismatches else (core.serialize(formula.refined), 0)


@_command("render", "emit a diagram of a type (or of a result's type)",
          format=dict(choices=["dot", "svg"], required=True), codes={})
def _render(args: argparse.Namespace) -> str:
    T = _load_leading_type(args.type)
    if args.format == "dot":
        return shift.incidence_dot(shift.incidence_matrix(T))
    return oracle.model_svg(T, _load_codes(args.codes) if args.codes else ())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geotype",
        description="Geometric types of Markov partitions: validation, codes, refinements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, flags, run in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("type")
        for flag, options in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **options)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_period", 0) < 0:
        parser.error("--max-period must be nonnegative")
    color = os.environ.get("GEOTYPE_COLOR") == "1"
    try:
        out = args.run(args)
        text, code = out if type(out) is tuple else (out, 0)
        sys.stdout.writelines([text] if type(text) is str else text)
        return code
    except GeoTypeError as exc:
        name = type(exc).__name__
        prefix = f"\x1b[31m{name}\x1b[0m" if color else name
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
