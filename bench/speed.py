"""Scale measured wall times to a reference machine speed.

On a shared host the speed of one core drifts by up to 2x within tens of
seconds, independently of the other core, and process CPU time drifts with it.
So the benchmark pins its process (and with it every child) to the cores a
workload uses, times a fixed pure-Python calibration loop on each of those
cores before and after every timed call, and multiplies the call's wall time
by the reference loop time over the mean measured loop time.  A scaled time
reads as the time the call would have taken at the reference speed.  Without
the pinning the loop may run on another core than the call and tracks nothing.
"""
from __future__ import annotations

import os
import statistics
from time import perf_counter

# Median time of one calibration pass at the reference speed (2-core Xeon, Python 3.11).
REFERENCE_PASS_S = 0.010
PASSES = 5
ITERATIONS = 60_000


def _calibration_pass() -> float:
    start = perf_counter()
    acc: dict = {}
    for i in range(ITERATIONS):
        key = i % 509
        acc[key] = acc.get(key, 0) + i
    return perf_counter() - start


class SpeedProbe:
    """Pin this process to `cpus` and calibrate on each of them."""

    def __init__(self, cpus: list[int]):
        self.cpus = list(cpus)
        self.pinned = hasattr(os, "sched_setaffinity")
        if self.pinned:
            os.sched_setaffinity(0, self.cpus)
        self.last = self.measure()

    def measure(self) -> float:
        """Mean over the cores of the median calibration pass time."""
        if not self.pinned:
            return statistics.median(_calibration_pass() for _ in range(PASSES))
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(statistics.median(_calibration_pass() for _ in range(PASSES)))
        finally:
            os.sched_setaffinity(0, self.cpus)
        return sum(times) / len(times)

    def scale(self) -> float:
        """Factor for the call made since the previous calibration."""
        now = self.measure()
        factor = REFERENCE_PASS_S / ((self.last + now) / 2)
        self.last = now
        return factor
