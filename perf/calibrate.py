"""Frozen calibration kernel and the wall-clock normalisation built on it.

Raw wall time on a shared 2-core container moves by tens of percent
between back-to-back runs of identical code; the same runs expressed
against a calibration loop interleaved with the measurement agree to a
few percent.  Every host duration the harness reports is therefore

    x_norm = x_wall * CAL_REF_NS / cal_ns

where ``cal_ns`` is the mean cost per iteration of two slices of the
kernel below, one run immediately before and one immediately after the
timed region.

The kernel is pure interpreter work of the kind the program itself does
(64-bit multiply/xor-shift hashing, a bounded dict store), so it slows
down and speeds up with the host the way the program does.  It is
*frozen*: changing a constant here re-bases every normalised number in
every committed result file.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: cost of one kernel iteration on the container the baseline was taken
#: on, so normalised ns read close to real ns there
CAL_REF_NS = 250.0

#: iterations per slice (one slice is ~5 ms)
CAL_ITERATIONS = 20_000

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0xBF58476D1CE4E5B9
_SEED = 0x9E3779B97F4A7C15


def calibration_slice(iterations: int = CAL_ITERATIONS) -> float:
    """Run one slice; returns wall nanoseconds per iteration."""
    x = _SEED
    store: dict[int, int] = {}
    now = time.perf_counter_ns
    start = now()
    for i in range(iterations):
        x = (x * _MULTIPLIER) & _MASK64
        x ^= x >> 29
        store[x & 1023] = i
    return (now() - start) / iterations


def normalise(wall: float, cal_before: float, cal_after: float) -> float:
    """``wall`` (any unit) re-expressed on the reference host."""
    return wall * CAL_REF_NS / ((cal_before + cal_after) / 2.0)


#: a slice that ended less than this long ago still counts as taken
#: "immediately before" the next region, and is not run again
SHARE_WITHIN_NS = 2_000_000


class Calibrator:
    """Runs regions between calibration slices and keeps every slice,
    so a run can report its own calibration level and spread."""

    def __init__(self, iterations: int = CAL_ITERATIONS) -> None:
        self.iterations = iterations
        self.slices: list[float] = []
        self._last_end_ns = 0

    def slice(self) -> float:
        value = calibration_slice(self.iterations)
        self.slices.append(value)
        self._last_end_ns = time.perf_counter_ns()
        return value

    def level(self, slices: int = 3) -> float:
        """Median of a few slices in a row: for the marks around a
        set-up stage, which is measured once and so cannot leave a
        slice that caught a hiccup to a later median."""
        return statistics.median(self.slice() for _ in range(slices))

    def between(self, region: Callable[[], T]) -> tuple[T, float]:
        """Run ``region()`` between two slices; returns its value and
        the factor that normalises a wall duration measured inside it.
        Back-to-back regions share the slice between them."""
        if self.slices and (time.perf_counter_ns() - self._last_end_ns
                            < SHARE_WITHIN_NS):
            before = self.slices[-1]
        else:
            before = self.slice()
        value = region()
        after = self.slice()
        return value, normalise(1.0, before, after)

    @property
    def mean_ns(self) -> float:
        return sum(self.slices) / len(self.slices)

    @property
    def spread(self) -> float:
        """Slowest slice over fastest slice of the whole run."""
        return max(self.slices) / min(self.slices)
