"""Client-side performance monitor (Section 4.1).

The monitor lives with the workload generator, samples end-to-end latency
continuously, and reports per decision interval whether the interactive
service's QoS is met and how much latency slack remains.  It is designed to
add no measurable load: sampling backs off adaptively when the service is
comfortably inside (or hopelessly outside) its QoS and tightens near the
boundary, where decisions actually change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
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
    _history: list[IntervalObservation] = field(default_factory=list)
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
            # np.mean's bits: numpy's (pairwise) sum over the count, without
            # np.mean's overhead.
            count = len(self._samples)
            p99 = float(np.add.reduce(np.asarray(self._samples))) / count
        else:
            # No samples this interval (fully backed-off monitor): assume
            # the last observation still holds.
            p99 = self._history[-1].p99 if self._history else 0.0
            count = 0
        observation = IntervalObservation(
            time=time, p99=p99, qos=self.qos, sample_count=count
        )
        self._samples.clear()
        self._history.append(observation)
        self._last_slack = observation.slack
        return observation

    @property
    def history(self) -> list[IntervalObservation]:
        return list(self._history)

    def qos_met_fraction(self) -> float:
        if not self._history:
            return 1.0
        met = sum(1 for obs in self._history if obs.qos_met)
        return met / len(self._history)
