"""Runtime policies: the decision layer invoked once per interval.

:class:`PliantPolicy` is the paper's algorithm — the Fig. 3 state machine
generalized to N co-scheduled applications via an arbiter (Section 4.4).
Baseline and ablation policies live in :mod:`repro.core.baselines`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.actuator import Actuator
from repro.core.arbiter import Arbiter, RoundRobinArbiter
from repro.core.monitor import IntervalObservation


class RuntimePolicy(ABC):
    """Per-interval decision logic."""

    #: Whether apps run instrumented, as under DynamoRIO: they pay its
    #: measured overhead, and only then may the policy switch their levels.
    requires_instrumentation: bool = False

    #: Display name for results tables.
    name: str = "policy"

    @abstractmethod
    def on_interval(self, obs: IntervalObservation, actuator: Actuator) -> None:
        """React to one decision interval's observation."""


class PliantPolicy(RuntimePolicy):
    """The Pliant runtime algorithm (Fig. 3 + Section 4.4).

    On a QoS violation: escalate one unit (jump an app to its most
    approximate variant; once all apps are maxed, reclaim one core).  On
    ample slack: de-escalate one unit (return a core first, then step
    approximation down).  Otherwise hold.

    De-escalation follows the paper's "if slack *remains* high" reading
    with an adaptive backoff: when relaxing immediately re-triggers a
    violation, the runtime waits exponentially longer before probing that
    direction again (up to ``max_backoff`` intervals), and the backoff
    decays during sustained stability.  Without it, configurations whose
    only QoS-meeting state has slack above the threshold would ping-pong
    between violation and relaxation forever — the instability the paper
    reports when the slack threshold is set too low.
    """

    requires_instrumentation = True
    name = "pliant"

    def __init__(
        self,
        slack_threshold: float = 0.10,
        arbiter: Arbiter | None = None,
        seed: int = 0,
        min_backoff: int = 2,
        max_backoff: int = 32,
    ) -> None:
        if not 0.0 <= slack_threshold < 1.0:
            raise ValueError("slack_threshold must lie in [0, 1)")
        if not 1 <= min_backoff <= max_backoff:
            raise ValueError("need 1 <= min_backoff <= max_backoff")
        self.slack_threshold = slack_threshold
        self._arbiter = arbiter or RoundRobinArbiter(seed=seed)
        self._min_backoff = min_backoff
        self._max_backoff = max_backoff
        self._backoff = min_backoff
        self._block_remaining = 0
        self._since_deescalation = 1 << 30
        self._stable_intervals = 0

    def on_interval(self, obs: IntervalObservation, actuator: Actuator) -> None:
        apps = actuator.running_views()
        self._since_deescalation += 1
        if not apps:
            return
        if not obs.qos_met:
            self._stable_intervals = 0
            if self._since_deescalation <= 2:
                # The last relaxation backfired: probe less eagerly.
                self._backoff = min(
                    self._max_backoff, max(self._min_backoff, self._backoff * 4)
                )
            self._block_remaining = self._backoff
            self._apply(self._arbiter.escalate(apps), actuator)
            return
        self._stable_intervals += 1
        if self._stable_intervals >= 16 and self._backoff > self._min_backoff:
            self._backoff //= 2
            self._stable_intervals = 0
        if obs.slack > self.slack_threshold:
            if self._block_remaining > 0:
                self._block_remaining -= 1
                return
            self._apply(self._arbiter.deescalate(apps), actuator)
            self._since_deescalation = 0

    @staticmethod
    def _apply(decision, actuator: Actuator) -> None:
        if decision.action == "set_level":
            actuator.set_level(decision.app_name, decision.level)
        elif decision.action == "reclaim_core":
            actuator.reclaim_core(decision.app_name)
        elif decision.action == "return_core":
            actuator.return_core(decision.app_name)
