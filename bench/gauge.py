"""Machine-speed gauge: scales measured times to a fixed reference speed.

A shared host changes how fast this process runs by up to about 2x within
seconds (CPU frequency and contention from other tenants; process CPU
time slows with wall time, so it is no escape).  Every timing the
benchmark reports is therefore divided by the machine's speed at that
moment, measured with a fixed loop of small-int, dict and ``fractions``
work that does not touch the package:

    scaled = measured * REFERENCE_S / (loop time next to the measurement)

``REFERENCE_S`` is the loop's time at the reference speed, so a scaled
time reads as seconds on a machine where the loop takes that long.  A
change to the package cannot move the loop, so it moves scaled times as
it moves wall times, while the host's drift cancels out.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# The loop's time in a fast phase of a 2-vCPU Intel Xeon host, Python 3.11.
REFERENCE_S = 0.004
ITERATIONS = 10000
EVERY_S = 0.1           # longest gap between two loop samples
NEIGHBOURS = 1          # loop samples on each side of a measurement used


def speed_loop() -> float:
    """Seconds taken by a fixed mix of small-int, dict and Fraction work."""
    start = perf_counter()
    acc, table, x = 0, {}, Fraction(1, 3)
    for i in range(ITERATIONS):
        acc += i * i % 7
        table[i & 63] = acc
        if i % 32 == 0:
            x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 5)
    return perf_counter() - start


class Gauge:
    """Loop samples taken between measurements, and the scaling they give."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self._last = float("-inf")

    @staticmethod
    def warm_up(samples: int) -> None:
        for _ in range(samples):
            speed_loop()

    def sample(self) -> None:
        start = perf_counter()
        self.times.append(speed_loop())
        self.starts.append(start)
        self._last = perf_counter()

    def tick(self) -> None:
        """Sample if the last sample is more than EVERY_S old."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed: the
        median loop time over the NEIGHBOURS samples before and after it."""
        i = bisect.bisect_left(self.starts, start)
        near = self.times[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return seconds * REFERENCE_S / statistics.median(near)

    def summary(self) -> dict:
        med = statistics.median(self.times)
        q = statistics.quantiles(self.times, n=4) if len(self.times) > 1 else [med] * 3
        return {"loop_samples": len(self.times), "loop_p50_s": med,
                "speed_vs_reference": REFERENCE_S / med, "loop_iqr_ratio": (q[2] - q[0]) / med}
