"""Client-side performance monitor (Section 4.1).

The monitor lives with the workload generator, samples end-to-end latency
continuously, and reports per decision interval whether the interactive
service's QoS is met and how much latency slack remains.  It is designed to
add no measurable load: sampling backs off adaptively when the service is
comfortably inside (or hopelessly outside) its QoS and tightens near the
boundary, where decisions actually change.

An interval's latency is the mean of its samples, bit for bit what
``np.mean`` returns: numpy's pairwise sum (:func:`pairwise_sum`, in pure
Python, so a handful of samples costs no array) over the count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

#: numpy's pairwise summation adds up to this many values in one block.
_PAIRWISE_BLOCK = 128


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of the float64 ``values``, bit for bit.

    numpy sums pairwise: fewer than 8 values in order from 0.0; up to 128
    in eight interleaved accumulators seeded with the first eight,
    combined as ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))``, then the rest
    in order; more than 128 as the sum of the two halves, split at
    ``n // 2`` rounded down to a multiple of 8.  Its reduction starts from
    the identity 0.0, which only turns a sum of ``-0.0`` into ``0.0``.
    Pure Python, so the result does not depend on the CPU's SIMD level.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        # From numpy's identity 0.0, so a sum of -0.0s is 0.0.
        total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for value in values[stop:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


@dataclass(frozen=True, slots=True)
class IntervalObservation:
    """What the monitor tells the controller at each decision boundary."""

    time: float
    p99: float
    qos: float
    sample_count: int

    @property
    def qos_met(self) -> bool:
        return self.p99 <= self.qos

    @property
    def slack(self) -> float:
        """Fractional latency headroom; negative when violating."""
        return (self.qos - self.p99) / self.qos

    @property
    def ratio(self) -> float:
        """Tail latency as a multiple of the QoS target."""
        return self.p99 / self.qos


@dataclass
class PerformanceMonitor:
    """Aggregates epoch latency samples into interval observations."""

    qos: float
    adaptive: bool = True
    _samples: list[float] = field(default_factory=list)
    _last_p99: float = 0.0
    _last_slack: float = 1.0

    def __post_init__(self) -> None:
        if self.qos <= 0:
            raise ValueError("qos must be positive")

    def should_sample(self, epoch_index: int) -> bool:
        """Adaptive sampling: near the QoS boundary every epoch counts;
        far from it, every other epoch suffices."""
        return self.samples_every_epoch or epoch_index % 2 == 0

    @property
    def samples_every_epoch(self) -> bool:
        """Whether :meth:`should_sample` holds for every epoch until the
        next :meth:`close_interval`; otherwise it holds for even ones."""
        return not self.adaptive or abs(self._last_slack) <= 0.25

    def record(self, p99_sample: float) -> None:
        if p99_sample < 0:
            raise ValueError("latency samples must be non-negative")
        self._samples.append(p99_sample)

    @property
    def pending_samples(self) -> int:
        return len(self._samples)

    def close_interval(self, time: float) -> IntervalObservation:
        """Fold the pending samples into one observation and reset."""
        if self._samples:
            count = len(self._samples)
            p99 = pairwise_sum(self._samples) / count
        else:
            # No samples this interval (fully backed-off monitor): assume
            # the last observation still holds.
            p99 = self._last_p99
            count = 0
        observation = IntervalObservation(
            time=time, p99=p99, qos=self.qos, sample_count=count
        )
        self._samples.clear()
        self._last_p99 = p99
        self._last_slack = observation.slack
        return observation
