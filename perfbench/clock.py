"""Host-speed calibration for timings taken on a shared machine.

On a shared host the same pure-Python work can take 30% longer for
seconds at a time, and CPU time stretches with wall time, so neither
clock alone is steady from one run to the next.  The runner therefore
runs a fixed calibration slice between jobs (at most every INTERVAL_S)
and scales every duration it reports by REFERENCE_S over the median of
the calibration slices nearest to that duration's start.  A reported
time reads as the time on a host where the slice takes REFERENCE_S.
The slice is the generator's exact Lukasiewicz closure of a fixed 8 x 8
matrix: Fraction arithmetic and comparisons, like the program's own hot
loops, and independent of the program under test.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import gen

REFERENCE_S = 0.003
INTERVAL_S = 0.1
MARKER = "#calibration "  # last stderr line of cli_child.py
_MATRIX = gen.random_matrix(random.Random(0), 8, gen.EIGHTHS)


class HostClock:
    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []

    def calibrate(self):
        start = time.perf_counter()
        gen.closure("lukasiewicz", _MATRIX)
        self.starts.append(start)
        self.costs.append(time.perf_counter() - start)

    def tick(self):
        """Calibrate if the last slice is older than INTERVAL_S."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.calibrate()

    def factor(self, t: float) -> float:
        """Scale for a duration starting at perf_counter time t: from the
        two calibrations before t and the two after it."""
        i = bisect.bisect(self.starts, t)
        return ratio(self.costs[max(0, i - 2) : i + 2])

    def median_factor(self) -> float:
        return ratio(self.costs)


def ratio(costs) -> float:
    """Scale for durations measured next to these calibration slices."""
    return REFERENCE_S / statistics.median(costs)


def split_child_stderr(stderr: str) -> tuple[str, list[float]]:
    """(stderr without the calibration line, slice costs) of a
    cli_child.py process."""
    head, marker, tail = stderr.rpartition(MARKER)
    if not marker:
        return stderr, []
    return head, [float(x) for x in tail.split()]
