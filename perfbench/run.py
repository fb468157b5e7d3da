"""Benchmark of the geotype library and CLI.

Usage, from the root of a checkout that holds ``src/geotype``::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``srefine-oracle``, ``wp-pipeline`` and
``corpus-cli``.  The run imports the library from ``src/`` and builds its
inputs from the seed several times (``setup_s`` is the median), then repeats
the workload's job until ``--seconds`` have passed, checking every output.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over the
run's jobs of the time inside program calls per job), ``engine_s`` and
``oracle_s`` (the refinement-engine and affine-oracle part of it),
``call_p50_ms``/``call_p99_ms`` (over every request of the run, a request
being the calls a user makes for one result), ``peak_rss_mib`` (this fresh
process) and ``setup_s``.  All times are scaled to a reference CPU speed
(``speed.py``).

``--trace 1`` makes the same composite calls, replays their public
sub-steps inside spans (``spans.py``) and reports per-layer metrics: for each
layer metric the median over jobs of its per-job total.  The spans are written
to ``perfbench/out/``.  ``LAYERS`` records which end-to-end metric each layer
metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Recorder, span_cost_s
from speed import Speedometer
from workloads import UNTRACED, WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "wall_s": "s",
    "engine_s": "s",
    "oracle_s": "s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# layer metric -> (unit, how it is read off the per-job span totals,
# the end-to-end metric and workload it should move)
LAYERS = {
    "core.validate.calls": ("count", "core.validate.calls", "wall_s on wp-pipeline"),
    "core.validate.s": ("s", "core.validate.s", "wall_s on wp-pipeline"),
    "core.invert.calls": ("count", "core.invert.calls", "wall_s on wp-pipeline"),
    "core.invert.s": ("s", "core.invert.s", "wall_s on wp-pipeline"),
    "core.parse.s": ("s", "core.parse.s", "call_p50_ms on corpus-cli"),
    "core.serialize.s": ("s", "core.serialize.s", "call_p50_ms on corpus-cli"),
    "shift.incidence_matrix.s": ("s", "shift.incidence_matrix.s", "engine_s, peak_rss_mib on srefine-oracle"),
    "shift.enumerate_orbits.s": (
        "s", "shift.enumerate_orbits.s", "setup_s on srefine-oracle, wall_s on wp-pipeline"
    ),
    "shift.enumerate_orbits.orbits": (
        "count", "shift.enumerate_orbits.orbits", "setup_s on srefine-oracle, wall_s on wp-pipeline"
    ),
    "shift.is_mixing.s": ("s", "shift.is_mixing.s", "call_p99_ms on corpus-cli"),
    "boundary.boundary_sets.calls": ("count", "boundary.boundary_sets.calls", "wall_s on wp-pipeline"),
    "boundary.boundary_sets.s": ("s", "boundary.boundary_sets.s", "wall_s on wp-pipeline"),
    "boundary.boundary_sets.orbits": ("count", "boundary.boundary_sets.orbits", "wall_s on wp-pipeline"),
    "refine.build_order.s": ("s", "refine.build_order.s", "engine_s on srefine-oracle"),
    "refine.build_order.cuts": ("count", "refine.build_order.cuts", "engine_s on srefine-oracle"),
    "refine.assembly.s": ("s", "refine.s_refine.self_s", "engine_s on srefine-oracle"),
    "refine.postcondition.s": ("s", "refine.postcondition.s", "engine_s, peak_rss_mib on srefine-oracle"),
    "refine.stage1.s": ("s", "refine.stage1.s", "wall_s on wp-pipeline"),
    "refine.stage2.s": ("s", "refine.stage2.s", "wall_s on wp-pipeline"),
    "refine.stage3.s": ("s", "refine.stage3.s", "wall_s on wp-pipeline"),
    "refine.serialize_result.s": ("s", "refine.serialize_result.s", "call_p50_ms on corpus-cli"),
    "oracle.periodic_point.calls": ("count", "oracle.periodic_point.calls", "oracle_s on srefine-oracle"),
    "oracle.periodic_point.s": ("s", "oracle.periodic_point.s", "oracle_s on srefine-oracle"),
    "oracle.oracle_s_refine.s": ("s", "oracle.oracle_s_refine.s", "oracle_s on srefine-oracle"),
    "cli.main.calls": ("count", "cli.main.calls", "call_p50_ms on corpus-cli"),
    "cli.main.s": ("s", "cli.main.s", "call_p50_ms on corpus-cli"),
    "cli.self.s": ("s", "cli.main.self_s", "call_p50_ms on corpus-cli"),
}


def load_library() -> SimpleNamespace:
    """Import geotype afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "geotype" or m.startswith("geotype.")]:
        del sys.modules[name]
    package = importlib.import_module("geotype")
    cli = importlib.import_module("geotype.cli")
    return SimpleNamespace(
        core=package.core,
        shift=package.shift,
        boundary=package.boundary,
        refine=package.refine,
        oracle=package.oracle,
        cli=cli,
    )


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(jobs: list[list[list[tuple[str, float]]]], setup_s: float) -> dict[str, float]:
    """``jobs`` holds each job's requests as lists of (kind, scaled seconds)."""
    latencies = [sum(s for _, s in request) for job in jobs for request in job]

    def per_job(kind: str | None) -> float:
        """Median over jobs of the time in parts of this kind (None: all)."""
        return statistics.median(
            sum(s for request in job for k, s in request if kind in (None, k)) for job in jobs
        )

    return {
        "wall_s": per_job(None),
        "engine_s": per_job("engine"),
        "oracle_s": per_job("oracle"),
        "call_p50_ms": percentile(latencies, 50) * 1e3,
        "call_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(rec: Recorder, jobs: int, duration) -> dict[str, float]:
    totals = rec.per_job_totals(duration)
    setup = totals.pop("setup", {})
    per_job = [totals.get(j, {}) for j in range(jobs)]
    return {
        name: setup.get(key, 0.0) + statistics.median(t.get(key, 0.0) for t in per_job)
        for name, (_, key, _) in LAYERS.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geotype" / "__init__.py").is_file():
        print(f"error: no geotype sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    rec = Recorder(enabled=traced)
    speed = Speedometer()
    checks = Checks()
    stamps: list[list[list[tuple[str, float, float]]]] = []
    job_stamps: list[tuple[float, float]] = []
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed.start()
    try:
        # Set-up: fresh import plus input generation, several times; the last
        # round's inputs are used, and traced when the run is traced.
        setup_stamps = []
        rec.job = "setup"
        for round_ in range(workload.setup_rounds):
            last = round_ == workload.setup_rounds - 1
            t0 = perf_counter()
            lib = load_library()
            ctx = workload.setup(lib, args.seed, rec if last else UNTRACED, workdir)
            setup_stamps.append((t0, perf_counter()))
        workload.warmup(ctx)

        # Jobs run back to back; none starts that would likely end past --seconds.
        start = perf_counter()
        while True:
            rec.job = len(stamps)
            t0 = perf_counter()
            try:
                requests = workload.traced_job(ctx, checks, rec) if traced else workload.job(ctx, checks)
            except Exception:
                traceback.print_exc()
                checks.record(False, f"job {len(stamps)} raised")
                break
            t1 = perf_counter()
            job_stamps.append((t0, t1))
            stamps.append(requests)
            if 2 * t1 - t0 - start > args.seconds:
                break
        speed.stop()
        workload.finish(ctx, checks, traced)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if not stamps:
        return 1

    jobs = [[[(kind, speed.scaled(a, b)) for kind, a, b in request] for request in job] for job in stamps]
    setup_s = statistics.median(speed.scaled(a, b) for a, b in setup_stamps)
    nrequests = sum(len(job) for job in jobs)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, {nrequests} requests, "
          f"{workload.setup_rounds} set-up rounds, traced={traced}")
    print(f"times are seconds at the reference CPU speed; this run ran at {speed.mean_rate():.3f} of it "
          f"({len(speed.ends)} speed probes)")
    job_s = [sum(s for request in job for _, s in request) for job in jobs]
    print("job times (s): " + " ".join(f"{s:.4f}" for s in job_s) + "  unscaled: "
          + " ".join(f"{sum(b - a for request in job for _, a, b in request):.4f}" for job in stamps))
    print(f"fail_ratio {checks.failed}/{checks.attempted} = {checks.failed / max(checks.attempted, 1):.6f}")
    if traced:
        metrics = per_layer(rec, len(jobs), speed.scaled)
        for name, (unit, _, moves) in LAYERS.items():
            print(f"  {name:32s} {metrics[name]:14.6f} {unit:6s} -> {moves}")
        composite = statistics.median(job_s)
        traced_wall = statistics.median(speed.scaled(a, b) for a, b in job_stamps)
        cost = span_cost_s()
        print(f"tracing: a job with its replays takes {traced_wall:.4f} s, its composite calls "
              f"{composite:.4f} s (what wall_s measures untraced); {len(rec.spans)} spans at "
              f"{cost * 1e6:.2f} us each cost {len(rec.spans) * cost:.4f} s")
        for span in rec.spans:
            span["scaled_s"] = speed.scaled(span["start"], span["end"])
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        rec.write(out)
        print(f"spans written to {out.relative_to(HERE.parent)}")
        result = {name: {"value": value, "unit": LAYERS[name][0]} for name, value in metrics.items()}
    else:
        e2e = end_to_end(jobs, setup_s)
        basis = {
            "call_p50_ms": f"over {nrequests} requests",
            "call_p99_ms": f"over {nrequests} requests",
            "peak_rss_mib": "this process",
            "setup_s": f"median of {workload.setup_rounds} set-up rounds",
        }
        for name, unit in END_TO_END.items():
            how = basis.get(name, f"median of {len(jobs)} jobs")
            print(f"  {name:14s} {e2e[name]:14.6f} {unit:4s} {how}")
        result = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
