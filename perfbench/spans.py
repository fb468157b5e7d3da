"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a public function of the library, recorded from
the benchmark's own code: name, start, end, the span that caused it (parent),
the job it belongs to, and optional work counts.  Spans stay in memory and are
written out once, when the run ends, with their duration at the reference CPU
speed added as ``scaled_s``.

A replayed sub-step is recorded as a child of the composite call it replays,
even though it runs after that call has returned.  A span's self time is its
duration minus the durations of its children, so the self time of a composite
is the part of its work that no public sub-step accounts for (for example
``s_refine`` minus ``build_order`` and the postcondition is the private strip
assembly).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Collects spans; a disabled recorder times nothing and keeps nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job: str | int | None = None
        self._stack: list[int | None] = []

    @contextmanager
    def span(self, name: str, **counts: int):
        """Time the enclosed block; the yielded record's "counts" takes more counts."""
        if not self.enabled:
            yield {"counts": {}}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def under(self, record: dict):
        """Make spans opened inside the block children of an earlier span."""
        if not self.enabled:
            yield
            return
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()

    def per_job_totals(self, duration) -> dict[object, dict[str, float]]:
        """For each job: per span name the count, summed duration, summed self
        time and summed work counts, keyed ``<name>.calls``, ``<name>.s``,
        ``<name>.self_s`` and ``<name>.<count>``.  ``duration(start, end)``
        turns a span's clock readings into seconds."""
        seconds = {s["id"]: duration(s["start"], s["end"]) for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += seconds[s["id"]]
        totals: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            job = totals[s["job"]]
            span_s = seconds[s["id"]]
            job[s["name"] + ".calls"] += 1
            job[s["name"] + ".s"] += span_s
            job[s["name"] + ".self_s"] += span_s - child_time[s["id"]]
            for key, value in s["counts"].items():
                job[f"{s['name']}.{key}"] += value
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    probe = Recorder()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples
