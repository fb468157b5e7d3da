"""The benchmark's workloads: seeded inputs, timed jobs, output checks and
traced replays.

Every function takes ``lib``, the geotype modules as freshly imported for the
current set-up round, so no module here imports the library itself.

A job is the unit that is repeated for the length of a run.  A job returns
its requests, the program calls a user would make one at a time.  A request
is a list of ``(kind, start, end)`` clock readings around its parts, where
kind is ``engine`` (refinement engine), ``oracle`` (affine oracle) or ``cli``
(other commands); nothing else is timed.  A traced job makes the same
composite calls and then replays each composite's public sub-steps in the
library's order, each inside a span, and checks that the replay gives the
composite's result.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Recorder

SREFINE_PERIOD = 10  # every non-s-boundary orbit of period <= 10 of bin(E1m)
SREFINE_CUTS = 1965
WP_PERIOD = 6
WP_REFINED_N = 314
CORPUS_BASE_SEED = 0
CORPUS_TYPES = 110
CORPUS_ALONG = 60
CORPUS_ORBIT_PERIOD = 5  # `orbits --max-period`
CORPUS_FAMILY_PERIOD = 4  # cutting families use orbits of period <= 4
CORPUS_WARMUP_CALLS = 100
ENGINE_COMMANDS = {"bin", "srefine", "corner"}
UNTRACED = Recorder(enabled=False)


@dataclass
class Checks:
    """Output checks, one per program call attempted."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


# -- seeded inputs ----------------------------------------------------------------


def make_e1m(lib):
    """E1 with the orientation of the upper strip flipped."""
    return lib.core.GeometricType.build((2,), (2,), {(1, 1): (1, 1, 1), (1, 2): (1, 2, -1)})


def make_e2(lib):
    return lib.core.GeometricType.build(
        (2, 2),
        (2, 2),
        {(1, 1): (1, 1, 1), (1, 2): (2, 1, 1), (2, 1): (1, 2, 1), (2, 2): (2, 2, 1)},
    )


def shuffled_labels(n: int, rng: random.Random) -> list[int]:
    """A random permutation of the rectangle labels 1..n, as a list of images."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def relabel(lib, T, perm: list[int]):
    """T with rectangle i renamed perm[i - 1]; isomorphic to T."""
    h = [0] * T.n
    v = [0] * T.n
    for i in range(1, T.n + 1):
        h[perm[i - 1] - 1] = T.h[i - 1]
        v[perm[i - 1] - 1] = T.v[i - 1]
    mapping = {}
    for label in T.h_labels():
        k, l, e = T.phi(label)
        mapping[(perm[label.i - 1], label.j)] = (perm[k - 1], l, e)
    return lib.core.GeometricType.build(h, v, mapping)


def random_valid_type(lib, rng: random.Random, max_n: int, max_hv: int):
    """A random valid type, drawn as the test suite's corpus generator draws it."""
    n = rng.randint(1, max_n)
    h = [rng.randint(1, max_hv) for _ in range(n)]
    v = [1] * n
    remaining = sum(h) - n
    while remaining > 0:
        idx = rng.randrange(n)
        if v[idx] < max_hv:
            v[idx] += 1
            remaining -= 1
    targets = [(k, l) for k in range(1, n + 1) for l in range(1, v[k - 1] + 1)]
    rng.shuffle(targets)
    mapping = {}
    pos = 0
    for i in range(1, n + 1):
        for j in range(1, h[i - 1] + 1):
            k, l = targets[pos]
            pos += 1
            mapping[(i, j)] = (k, l, rng.choice((1, -1)))
    return lib.core.GeometricType.build(tuple(h), tuple(v), mapping)


def non_boundary_family(lib, T, max_period: int, rng: random.Random, rec: Recorder):
    """Every non-s-boundary orbit of period <= max_period, each at a random
    phase, in random order."""
    A = lib.shift.incidence_matrix(T)
    with rec.span("shift.enumerate_orbits") as sp:
        orbits = lib.shift.enumerate_orbits(A, max_period)
    sp["counts"]["orbits"] = len(orbits)
    boundary = {c.orbit() for c in lib.boundary.per_s_codes(T)}
    family = [o.canonical.rotate(rng.randrange(o.period)) for o in orbits if o not in boundary]
    rng.shuffle(family)
    return family


# -- independent output checks ------------------------------------------------------


def _cycle_words(lib, n: int, step) -> set[tuple[int, ...]]:
    """First-component words of the cycles reached from every boundary label."""
    words = set()
    for start in ((i, e) for i in range(1, n + 1) for e in (-1, 1)):
        seen: dict[tuple[int, int], int] = {}
        trace = []
        label = start
        while label not in seen:
            seen[label] = len(trace)
            trace.append(label)
            label = step(*label)
        words.add(lib.shift.primitive_root(tuple(i for i, _ in trace[seen[label]:])))
    return words


def has_corner_property(lib, T) -> bool:
    """Every periodic boundary code is both s- and u-boundary.

    Follows the boundary edges through T's own (rho, eps) data in linear time
    per step, without the library's boundary module, which revalidates the
    type on every step and needs seconds on the wp-pipeline output.
    """
    strips = dict(zip(T.h_labels(), zip(T.rho, T.eps)))
    inverse = {target: (label, sign) for label, (target, sign) in strips.items()}

    def s_step(i: int, e: int) -> tuple[int, int]:
        (k, _), sign = strips[(i, 1 if e == -1 else T.h[i - 1])]
        return k, e * sign

    def u_step(k: int, e: int) -> tuple[int, int]:
        (i, _), sign = inverse[(k, 1 if e == -1 else T.v[k - 1])]
        return i, e * sign

    s_orbits = {lib.shift.min_rotation(w) for w in _cycle_words(lib, T.n, s_step)}
    u_orbits = {lib.shift.min_rotation(w[::-1]) for w in _cycle_words(lib, T.n, u_step)}
    return s_orbits == u_orbits


def same_refinement(engine, oracle) -> bool:
    return engine.refined == oracle.refined and engine.label_map == oracle.label_map


# -- traced replays of composite calls -----------------------------------------------


def _orbit_reps(lib, orbits) -> list:
    return [o.canonical for o in sorted(orbits, key=lib.shift.CodeOrbit.sort_key)]


def _orbits(codes) -> set:
    return {c.orbit() for c in codes}


def _checked_input(rec: Recorder, lib, T) -> None:
    """The validate / incidence / binary checks that open every refinement."""
    with rec.span("core.validate"):
        lib.core.validate(T)
    with rec.span("shift.incidence_matrix"):
        A = lib.shift.incidence_matrix(T)
    with rec.span("shift.is_binary"):
        lib.shift.is_binary(A)


def _boundary_sets(rec: Recorder, lib, T):
    with rec.span("boundary.boundary_sets") as sp:
        sets = lib.boundary.boundary_sets(T)
    sp["counts"]["orbits"] = len(sets.orbits(sets.b_codes))
    return sets


def replay_s_refine(rec: Recorder, lib, T, W, stage: str | None = None, **kw):
    """``s_refine``, then its build_order and output postcondition replayed.

    Returns the composite result and whether the replay agreed with it.
    """
    with rec.span(stage) if stage else nullcontext():
        with rec.span("refine.s_refine") as top:
            result = lib.refine.s_refine(T, W, **kw)
    with rec.under(top):
        with rec.span("refine.build_order") as sp:
            order = lib.refine.build_order(T, W, **kw)
        sp["counts"]["cuts"] = sum(len(refs) for refs in order.entries)
        with rec.span("refine.postcondition"):
            with rec.span("core.validate"):
                report = lib.core.validate(result.refined)
            with rec.span("shift.incidence_matrix"):
                A = lib.shift.incidence_matrix(result.refined)
            with rec.span("shift.is_binary"):
                binary = lib.shift.is_binary(A)
    return result, order == result.order and report.ok and binary


def replay_u_refine(rec: Recorder, lib, T, W, stage: str | None = None):
    """``u_refine``, then: input checks, per_u_codes, invert, the stable
    refinement of the inverse, invert back."""
    with rec.span(stage) if stage else nullcontext():
        with rec.span("refine.u_refine") as top:
            result = lib.refine.u_refine(T, W)
    with rec.under(top):
        _checked_input(rec, lib, T)
        with rec.span("boundary.per_u_codes"):
            lib.boundary.per_u_codes(T)
        with rec.span("core.invert"):
            Ti = lib.core.invert(T)
        inner, ok = replay_s_refine(rec, lib, Ti, [w.reversed_pointed() for w in W])
        with rec.span("core.invert"):
            refined = lib.core.invert(inner.refined)
    return result, ok and refined == result.refined and inner.refined == result.stages[0].refined


def replay_corner(rec: Recorder, lib, T):
    """corner_refine's steps: input checks, boundary sets, the s-pass (stage 2),
    boundary sets of its output, the u-pass (stage 3).  Returns the stages."""
    _checked_input(rec, lib, T)
    sets = _boundary_sets(rec, lib, T)
    s_pass, ok_s = replay_s_refine(
        rec, lib, T, _orbit_reps(lib, _orbits(sets.b_codes) - _orbits(sets.s_codes)), "refine.stage2"
    )
    sets1 = _boundary_sets(rec, lib, s_pass.refined)
    u_pass, ok_u = replay_u_refine(
        rec,
        lib,
        s_pass.refined,
        _orbit_reps(lib, _orbits(sets1.s_codes) - _orbits(sets1.u_codes)),
        "refine.stage3",
    )
    return (s_pass, u_pass), ok_s and ok_u


def replay_corner_along(rec: Recorder, lib, T, W):
    """corner_refine_along's steps: input checks, corner check, stage 1 along W
    (boundary members dropped), then corner_refine's steps."""
    _checked_input(rec, lib, T)
    _boundary_sets(rec, lib, T)
    stage1, ok1 = replay_s_refine(rec, lib, T, W, "refine.stage1", drop_boundary=True)
    rest, ok2 = replay_corner(rec, lib, stage1.refined)
    return (stage1,) + rest, ok1 and ok2


def replay_wp(rec: Recorder, lib, T, P: int):
    """wp_refine's steps: input checks, corner check and period bound (two
    boundary-set computations), the orbit enumeration, then
    corner_refine_along's steps.  Returns the stages."""
    _checked_input(rec, lib, T)
    _boundary_sets(rec, lib, T)
    _boundary_sets(rec, lib, T)
    with rec.span("shift.enumerate_orbits") as sp:
        orbits = lib.shift.enumerate_orbits(lib.shift.incidence_matrix(T), P)
    sp["counts"]["orbits"] = len(orbits)
    return replay_corner_along(rec, lib, T, [o.canonical for o in orbits])


def replay_oracle(rec: Recorder, lib, T, family):
    """``oracle_s_refine``, then the model and one periodic point per cut line
    replayed; every replayed height must equal the oracle's.  Returns the
    result, whether the replay agreed, and the composite's span."""
    with rec.span("oracle.oracle_s_refine") as top:
        result = lib.oracle.oracle_s_refine(T, family)
    heights = {(t, code): y for bucket in result.cut_heights for y, t, code in bucket}
    ok = True
    with rec.under(top):
        with rec.span("oracle.realize"):
            model = lib.oracle.realize(T)
        for code in family:
            for t in range(code.period):
                with rec.span("oracle.periodic_point"):
                    point = lib.oracle.periodic_point(model, code, t)
                ok = ok and heights.get((t, code)) == point.y
    return result, ok and len(heights) == sum(c.period for c in family), top


def _pipeline(lib, T, stages):
    return lib.refine.RefinementResult(
        refined=stages[-1].refined, source=T, kind="pipeline", stages=tuple(stages)
    )


class Workload:
    """A job with its inputs; subclasses define setup, job and traced_job."""

    setup_rounds: int  # set-up repetitions whose median is setup_s

    @staticmethod
    def warmup(ctx) -> None:
        """Untimed calls made once after set-up."""

    @staticmethod
    def finish(ctx, checks: Checks, traced: bool) -> None:
        """Untimed output checks made once after the measured jobs."""


# -- srefine-oracle ------------------------------------------------------------------


class SrefineOracle(Workload):
    """One oracle-check job: s_refine, then oracle_s_refine, on bin(E1m) along
    every non-s-boundary orbit of period <= 10."""

    setup_rounds = 7

    @staticmethod
    def setup(lib, seed: int, rec: Recorder, workdir: Path):
        rng = random.Random(seed)
        T = lib.refine.bin_refine(make_e1m(lib)).refined
        T = relabel(lib, T, shuffled_labels(T.n, rng))
        family = non_boundary_family(lib, T, SREFINE_PERIOD, rng, rec)
        type_path = workdir / "T.gt"
        codes_path = workdir / "W.codes"
        type_path.write_text(lib.core.serialize(T), encoding="utf-8")
        codes_path.write_text(lib.shift.serialize_codes(family), encoding="utf-8")
        return SimpleNamespace(
            lib=lib,
            T=T,
            W=family,
            argv=["oracle-check", str(type_path), "--codes", str(codes_path)],
            first=None,
        )

    @staticmethod
    def _check(ctx, checks: Checks, engine, oracle) -> None:
        if ctx.first is None:
            ctx.first = engine.refined
        checks.record(
            engine.refined.n == ctx.T.n + SREFINE_CUTS and engine.refined == ctx.first,
            "s_refine output size or repeatability",
        )
        checks.record(same_refinement(engine, oracle), "engine and oracle differ")

    @staticmethod
    def job(ctx, checks: Checks):
        lib = ctx.lib
        t0 = perf_counter()
        engine = lib.refine.s_refine(ctx.T, ctx.W)
        t1 = perf_counter()
        oracle = lib.oracle.oracle_s_refine(ctx.T, ctx.W)
        t2 = perf_counter()
        SrefineOracle._check(ctx, checks, engine, oracle)
        return [[("engine", t0, t1), ("oracle", t1, t2)]]

    @staticmethod
    def traced_job(ctx, checks: Checks, rec: Recorder):
        """`geotype oracle-check`, replayed as parse, parse_codes, s_refine,
        oracle_s_refine and serialize."""
        lib = ctx.lib
        rc, out, t0, t1, top = run_cli(rec, lib, ctx.argv)
        with rec.under(top):
            type_text = Path(ctx.argv[1]).read_text(encoding="utf-8")
            codes_text = Path(ctx.argv[3]).read_text(encoding="utf-8")
            with rec.span("core.parse"):
                T = lib.core.parse(type_text)
            with rec.span("shift.parse_codes"):
                W = lib.shift.parse_codes(codes_text)
            engine, ok_engine = replay_s_refine(rec, lib, T, W)
            oracle, ok_oracle, _ = replay_oracle(rec, lib, T, W)
            with rec.span("core.serialize"):
                text = lib.core.serialize(engine.refined)
        SrefineOracle._check(ctx, checks, engine, oracle)
        checks.record(
            rc == 0 and out == text and T == ctx.T and ok_engine and ok_oracle,
            "oracle-check replay differs from the command",
        )
        return [[("cli", t0, t1)]]


# -- wp-pipeline ----------------------------------------------------------------------


class WpPipeline(Workload):
    """wp_refine(E2, 6); the oracle cross-checks its two stable stages."""

    setup_rounds = 9

    @staticmethod
    def setup(lib, seed: int, rec: Recorder, workdir: Path):
        T = relabel(lib, make_e2(lib), shuffled_labels(2, random.Random(seed)))
        return SimpleNamespace(lib=lib, T=T, first=None)

    @staticmethod
    def _check_result(ctx, checks: Checks, result) -> None:
        if ctx.first is None:
            ctx.first = result
        checks.record(
            result.refined.n == WP_REFINED_N and result.refined == ctx.first.refined,
            "wp_refine output size or repeatability",
        )

    @staticmethod
    def job(ctx, checks: Checks):
        lib = ctx.lib
        t0 = perf_counter()
        result = lib.refine.wp_refine(ctx.T, WP_PERIOD)
        calls = [[("engine", t0, perf_counter())]]
        WpPipeline._check_result(ctx, checks, result)
        for stage in result.stages[:2]:
            t0 = perf_counter()
            oracle = lib.oracle.oracle_s_refine(stage.source, stage.order.family)
            calls.append([("oracle", t0, perf_counter())])
            checks.record(same_refinement(stage, oracle), "stage and oracle differ")
        return calls

    @staticmethod
    def traced_job(ctx, checks: Checks, rec: Recorder):
        lib = ctx.lib
        with rec.span("refine.wp_refine") as top:
            result = lib.refine.wp_refine(ctx.T, WP_PERIOD)
        WpPipeline._check_result(ctx, checks, result)
        with rec.under(top):
            stages, ok = replay_wp(rec, lib, ctx.T, WP_PERIOD)
        checks.record(
            ok
            and len(stages) == len(result.stages)
            and all(a.refined == b.refined for a, b in zip(stages, result.stages)),
            "stage replay differs from wp_refine",
        )
        calls = [[("engine", top["start"], top["end"])]]
        for stage in result.stages[:2]:
            oracle, ok, top = replay_oracle(rec, lib, stage.source, stage.order.family)
            calls.append([("oracle", top["start"], top["end"])])
            checks.record(ok and same_refinement(stage, oracle), "stage and oracle differ")
        return calls

    @staticmethod
    def finish(ctx, checks: Checks, traced: bool) -> None:
        """The final type is valid, binary and has the corner property."""
        lib = ctx.lib
        final = ctx.first.refined
        checks.record(
            lib.core.validate(final).ok
            and lib.shift.is_binary(lib.shift.incidence_matrix(final))
            and has_corner_property(lib, final),
            "wp_refine output is not a valid binary corner type",
        )


# -- corpus-cli -------------------------------------------------------------------------


def run_cli(rec: Recorder, lib, argv: list[str]):
    """One in-process `geotype` command: exit code, stdout, the clock readings
    around the call, and its span."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with rec.span("cli.main") as top:
            t0 = perf_counter()
            try:
                rc = lib.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            t1 = perf_counter()
    return rc, out.getvalue(), t0, t1, top


def _corpus_calls(lib, seed: int, workdir: Path) -> list[tuple[list[str], int, str]]:
    """(argv, expected exit code, expected stdout) for every command of the
    corpus; the expected text comes from the library.

    The corpus holds CORPUS_TYPES random binary-refined types that each have a
    non-s-boundary cutting family of one or two orbits.  Each type gets the
    nine commands below; the first CORPUS_ALONG types with the corner property
    also get `corner --along`.  The types and families are drawn once, from
    CORPUS_BASE_SEED; the seed relabels every type's rectangles, picks the
    code phases and orders the types.  So every seed gives an isomorphic
    corpus with the same command mix: drawing the types from the seed made
    the pass time differ by about a tenth from seed to seed.
    """
    core, shift, boundary, refine = lib.core, lib.shift, lib.boundary, lib.refine
    draw = random.Random(CORPUS_BASE_SEED)
    base = []
    along = 0
    while len(base) < CORPUS_TYPES:
        T = refine.bin_refine(random_valid_type(lib, draw, max_n=2, max_hv=2)).refined
        orbits = shift.enumerate_orbits(shift.incidence_matrix(T), CORPUS_FAMILY_PERIOD)
        s_orbits = _orbits(boundary.per_s_codes(T))
        usable = [o.canonical for o in orbits if o not in s_orbits]
        if not usable:
            continue
        with_along = along < CORPUS_ALONG and boundary.has_corner_property(T)
        along += with_along
        base.append((T, draw.sample(usable, min(2, len(usable))), with_along))

    rng = random.Random(seed)
    rng.shuffle(base)
    calls: list[tuple[list[str], int, str]] = []
    for index, (T0, family0, with_along) in enumerate(base, start=1):
        perm = shuffled_labels(T0.n, rng)
        T = relabel(lib, T0, perm)
        family = [
            shift.PeriodicCode(tuple(perm[s - 1] for s in code.word)).rotate(rng.randrange(code.period))
            for code in family0
        ]
        p = str(workdir / f"t{index}.gt")
        c = str(workdir / f"t{index}.codes")
        Path(p).write_text(core.serialize(T), encoding="utf-8")
        Path(c).write_text(shift.serialize_codes(family), encoding="utf-8")
        A = shift.incidence_matrix(T)
        orbits = shift.enumerate_orbits(A, CORPUS_ORBIT_PERIOD)
        engine = refine.s_refine(T, family)
        calls += [
            (["validate", p], 0, "ok\n"),
            (["incidence", p, "--check", "mixing"], 0, f"{str(shift.is_mixing(A)).lower()}\n"),
            (
                ["orbits", p, "--max-period", str(CORPUS_ORBIT_PERIOD)],
                0,
                shift.serialize_codes(o.canonical for o in orbits),
            ),
            (["bin", p], 0, core.serialize(refine.bin_refine(T).refined)),
            (["invert", p], 0, core.serialize(core.invert(T))),
            (["codes", p], 0, boundary.boundary_report(T)),
            (["corner", p], 0, refine.serialize_result(refine.corner_refine(T))),
            (["srefine", p, "--codes", c], 0, refine.serialize_result(engine)),
            # a correct engine agrees with the oracle, so oracle-check exits 0
            (["oracle-check", p, "--codes", c], 0, core.serialize(engine.refined)),
        ]
        if with_along:
            result = refine.corner_refine_along(T, family)
            calls.append((["corner", p, "--along", c], 0, refine.serialize_result(result)))
    return calls


def replay_command(rec: Recorder, lib, argv: list[str]):
    """The library calls one command makes, in its order; returns the text the
    command prints and whether every composite's replay agreed with it."""
    cmd = argv[0]
    with rec.span("core.parse"):
        T = lib.core.parse(Path(argv[1]).read_text(encoding="utf-8"))
    W = None
    if "--codes" in argv or "--along" in argv:
        with rec.span("shift.parse_codes"):
            W = lib.shift.parse_codes(Path(argv[3]).read_text(encoding="utf-8"))
    ok = True
    if cmd == "validate":
        with rec.span("core.validate"):
            report = lib.core.validate(T)
        return ("ok\n" if report.ok else ""), ok
    if cmd == "invert":
        with rec.span("core.invert"):
            Ti = lib.core.invert(T)
        with rec.span("core.serialize"):
            return lib.core.serialize(Ti), ok
    if cmd == "incidence":
        with rec.span("shift.incidence_matrix"):
            A = lib.shift.incidence_matrix(T)
        with rec.span("shift.is_mixing"):
            return f"{str(lib.shift.is_mixing(A)).lower()}\n", ok
    if cmd == "orbits":
        with rec.span("shift.incidence_matrix"):
            A = lib.shift.incidence_matrix(T)
        with rec.span("shift.enumerate_orbits") as sp:
            orbits = lib.shift.enumerate_orbits(A, int(argv[3]))
        sp["counts"]["orbits"] = len(orbits)
        with rec.span("shift.serialize_codes"):
            return lib.shift.serialize_codes(o.canonical for o in orbits), ok
    if cmd == "bin":
        with rec.span("refine.bin_refine"):
            refined = lib.refine.bin_refine(T).refined
        with rec.span("core.serialize"):
            return lib.core.serialize(refined), ok
    if cmd == "codes":
        with rec.span("boundary.boundary_report"):
            return lib.boundary.boundary_report(T), ok
    if cmd == "srefine":
        result, ok = replay_s_refine(rec, lib, T, W)
    elif cmd == "oracle-check":
        engine, ok_engine = replay_s_refine(rec, lib, T, W)
        oracle, ok_oracle, _ = replay_oracle(rec, lib, T, W)
        ok = ok_engine and ok_oracle and same_refinement(engine, oracle)
        with rec.span("core.serialize"):
            return lib.core.serialize(engine.refined), ok
    elif cmd == "corner" and W is None:
        stages, ok = replay_corner(rec, lib, T)
        result = _pipeline(lib, T, stages)
    else:
        stages, ok = replay_corner_along(rec, lib, T, W)
        result = _pipeline(lib, T, stages)
    with rec.span("refine.serialize_result"):
        return lib.refine.serialize_result(result), ok


class CorpusCli(Workload):
    """In-process `geotype` commands over a seeded corpus of small types."""

    setup_rounds = 3

    @staticmethod
    def setup(lib, seed: int, rec: Recorder, workdir: Path):
        return SimpleNamespace(lib=lib, calls=_corpus_calls(lib, seed, workdir))

    @staticmethod
    def warmup(ctx) -> None:
        """Argument parsing and first-use costs settle before timing starts."""
        for argv, _, _ in ctx.calls[:CORPUS_WARMUP_CALLS]:
            run_cli(UNTRACED, ctx.lib, argv)

    @staticmethod
    def _kind(argv: list[str]) -> str:
        if argv[0] == "oracle-check":
            return "oracle"
        return "engine" if argv[0] in ENGINE_COMMANDS else "cli"

    @staticmethod
    def job(ctx, checks: Checks):
        timed = []
        for argv, expected_rc, expected_out in ctx.calls:
            rc, out, t0, t1, _ = run_cli(UNTRACED, ctx.lib, argv)
            timed.append([(CorpusCli._kind(argv), t0, t1)])
            checks.record(rc == expected_rc and out == expected_out, " ".join(argv))
        return timed

    @staticmethod
    def traced_job(ctx, checks: Checks, rec: Recorder):
        timed = []
        for argv, expected_rc, expected_out in ctx.calls:
            rc, out, t0, t1, top = run_cli(rec, ctx.lib, argv)
            with rec.under(top):
                text, ok = replay_command(rec, ctx.lib, argv)
            timed.append([(CorpusCli._kind(argv), t0, t1)])
            checks.record(
                ok and rc == expected_rc and out == expected_out == text,
                "replay of " + " ".join(argv),
            )
        return timed


WORKLOADS = {
    "srefine-oracle": SrefineOracle,
    "wp-pipeline": WpPipeline,
    "corpus-cli": CorpusCli,
}
