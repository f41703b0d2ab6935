"""Host-speed calibration of measured times.

On a shared host the speed of one core can swing by half for seconds at
a time, and CPU time swings with wall time, so raw times of the same code
spread by a third from run to run.  The benchmark therefore runs a fixed
reference loop (code of its own, never the program's) between pieces of
timed work, and reports each piece at reference speed: its wall time
times ``REFERENCE_S`` over what the loop took next to it.  A change to
the program moves these times as it moves wall time; a change in host
speed moves the loop as much and cancels.

Loop time is excluded from every measured interval, and each gap between
two marks is scaled by the median loop time of the four marks around it,
so one disturbed loop does not skew its neighbours.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

#: The reference loop's time on an idle core of the 2-vCPU x86-64 host the
#: baseline was recorded on; times are reported at that speed.
REFERENCE_S = 0.003
#: Work between two marks made by ``mark(due=True)``.
MARK_EVERY_S = 0.02


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def scaled(self, k: float) -> float:
        return self.x * k + self.y


_VECTOR = np.arange(16.0)


def reference_loop() -> float:
    """Interpreter arithmetic, dict updates, object calls and small numpy
    operations: the mix the simulator's epoch loop is made of."""
    total = 0
    for i in range(12000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    acc = 0.0
    for i in range(700):
        point = _Point(i, 2.0)
        acc += point.scaled(1.5)
        scaled = _VECTOR * point.y
        acc += float(scaled.sum()) + max(scaled[3], scaled[5])
    return total + acc + len(counts)


class SpeedTrack:
    """Reference-loop marks laid between timed work, and the conversion
    of wall-clock intervals into reference-speed seconds.

    With ``enabled=False`` marks do nothing and intervals are wall time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._begins: list[float] = []
        self._ends: list[float] = []
        self._loops: list[float] = []

    def mark(self, due: bool = False) -> None:
        """Time the reference loop here; with ``due``, only once
        ``MARK_EVERY_S`` of work has passed since the last mark."""
        if not self.enabled:
            return
        begin = perf_counter()
        if due and self._ends and begin - self._ends[-1] < MARK_EVERY_S:
            return
        reference_loop()
        end = perf_counter()
        self._begins.append(begin)
        self._ends.append(end)
        self._loops.append(end - begin)

    def _scale(self, gap: int) -> float:
        """Reference seconds per wall second in the gap before mark ``gap``."""
        window = self._loops[max(gap - 2, 0) : gap + 2]
        return REFERENCE_S / statistics.median(window)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done between two
        ``perf_counter`` readings, the reference loops left out."""
        if not self.enabled or not self._loops:
            return end - start
        total = 0.0
        # Gap g runs from the end of mark g-1 to the beginning of mark g.
        gap = bisect.bisect_right(self._begins, start)
        while True:
            lo = max(start, self._ends[gap - 1]) if gap > 0 else start
            hi = min(end, self._begins[gap]) if gap < len(self._begins) else end
            if hi > lo:
                total += (hi - lo) * self._scale(gap)
            if gap >= len(self._begins) or self._begins[gap] >= end:
                return total
            gap += 1
