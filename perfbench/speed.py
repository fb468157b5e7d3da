"""CPU-speed normalisation of measured times.

The machines this benchmark runs on share their cores, and their speed
switches between states for seconds at a time (a fixed pure-Python loop was
measured at 75 and at 130 microseconds in alternating stretches of a few
seconds on a 2-vCPU VM).  A job of several seconds then takes anywhere
between its fast and its slow time, which hides any change smaller than that
swing.

While a run measures, a timer signal runs a fixed probe loop that does not
touch the library every PROBE_INTERVAL_S of wall time and records how long it
took.  Each measured interval is converted into the time it would have taken
at the reference speed, at which the probe takes REFERENCE_PROBE_S: every
stretch between two probes counts REFERENCE_PROBE_S / probe time per second.
A change to the library changes the work inside the intervals, not the probe,
so it shows in full; a change in machine speed changes both and cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.01
REFERENCE_PROBE_S = 75e-6  # the probe on the machine above, in its fast state
SMOOTHING = 5  # probes per rolling median, to drop single interrupted probes


def _probe() -> None:
    table: dict[tuple[int, int], int] = {}
    for i in range(300):
        key = (i % 7, i % 3)
        table[key] = table.get(key, 0) + i * i % 7


class Speedometer:
    """Samples CPU speed on a timer signal between start() and stop()."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._rates: list[float] = []
        self._cumulative: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _integrate(self) -> None:
        half = SMOOTHING // 2
        smooth = [
            statistics.median(self.durations[max(0, i - half) : i + half + 1])
            for i in range(len(self.durations))
        ]
        self._rates = [REFERENCE_PROBE_S / d for d in smooth]
        total = 0.0
        for i, rate in enumerate(self._rates):
            if i:
                total += (self.ends[i] - self.ends[i - 1]) * rate
            self._cumulative.append(total)

    def _work(self, t: float) -> float:
        """Reference-speed seconds from the first probe to time t."""
        j = bisect.bisect_left(self.ends, t)
        if j == 0:
            return (t - self.ends[0]) * self._rates[0]
        if j == len(self.ends):
            return self._cumulative[-1] + (t - self.ends[-1]) * self._rates[-1]
        return self._cumulative[j - 1] + (t - self.ends[j - 1]) * self._rates[j]

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed;
        call after stop()."""
        if not self.ends:
            return end - start
        if not self._cumulative:
            self._integrate()
        return self._work(end) - self._work(start)

    def mean_rate(self) -> float:
        """Mean speed relative to the reference speed over the sampled time."""
        if len(self.ends) < 2:
            return 1.0
        return self.scaled(self.ends[0], self.ends[-1]) / (self.ends[-1] - self.ends[0])
