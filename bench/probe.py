"""A speed probe: a fixed piece of pure-Python work timed all through a run.

The machine the benchmark was tuned on runs the same code up to 1.7 times
slower at some times than at others, and the speed changes within a second
as well as over minutes (see "Measured noise" in bench/README.md).  A wall
time taken there says as much about the moment as about the program.  So
while ops run, a wall-clock timer interrupts the child every ``PERIOD_S``
and times ``work()``: exact ``Fraction`` arithmetic kept in a dict, the
kind of code hderlab spends its time in.  ``at_reference_speed`` then
scales each op's latency by how much slower than ``NOMINAL_S`` the probes
taken while it ran were.  The probe does not use hderlab, so a change to
the program moves the scaled times and a change of the machine's speed
mostly does not.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
MIN_PROBES = 2
# work() on a fast stretch of the 2-core Xeon VM the benchmark was tuned on.
NOMINAL_S = 0.001


def work() -> Fraction:
    acc = Fraction(0)
    row = {}
    for i in range(1, 110):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        row[i % 17] = acc
    return acc


def time_work(count: int) -> list[float]:
    """Wall times of ``count`` back-to-back calls of ``work()``."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        work()
        out.append(time.perf_counter() - start)
    return out


class Probe:
    """Times ``work()`` every ``PERIOD_S`` of wall time from a SIGALRM handler.

    ``paused`` is the total time spent in the handler, so a caller can take
    it out of what it measures around the handler.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.paused = 0.0

    def _handler(self, _signum, _frame):
        # A collection set off by the probe's own allocations would move the
        # program's collections, and with them its peak RSS.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        work()
        spent = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append((start, spent))
        self.paused += spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(spans: list[tuple[float, float, float]],
                       samples: list[tuple[float, float]]) -> list[float]:
    """Scale each ``(start, end, latency)`` to the speed at which ``work()`` takes ``NOMINAL_S``.

    The speed of an op is the mean probe time over the probes taken while it
    ran.  The machine's speed changes within a second, so the window is the
    op itself; around a short op it widens evenly until it holds
    ``MIN_PROBES``.
    """
    samples = sorted(samples)
    starts = [s for s, _ in samples]
    if len(samples) < MIN_PROBES:
        raise ValueError(f"only {len(samples)} speed probes in the run")
    out = []
    for start, end, latency in spans:
        pad = 0.0
        while True:
            lo = bisect.bisect_left(starts, start - pad)
            hi = bisect.bisect_right(starts, end + pad)
            if hi - lo >= MIN_PROBES:
                break
            pad += PERIOD_S / 2
        probe_s = statistics.fmean(d for _, d in samples[lo:hi])
        out.append(latency * NOMINAL_S / probe_s)
    return out
