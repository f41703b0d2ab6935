"""Fig. 3 state machine: the full transition table, on PliantPolicy.

One application behind a fake actuator, so every decision is visible as
the actuator call it makes.  ``PliantPolicy`` is the Fig. 3 machine
generalized to N apps by an arbiter; with one app the arbiter's choice is
forced and the policy *is* the single-app machine, plus the documented
backoff before relaxing after a violation (``TestBackoff``).
"""

import pytest

from repro.core import PliantPolicy
from repro.core.arbiter import AppView
from repro.core.monitor import IntervalObservation

QOS = 10.0


class FakeActuator:
    """One app's (level, cores), changed only by the policy's calls."""

    def __init__(self, level=0, reclaimed=0, max_level=4, nominal_cores=8):
        self.level = level
        self.max_level = max_level
        self.nominal_cores = nominal_cores
        self.cores = nominal_cores - reclaimed
        self.actions = []

    @property
    def reclaimed(self):
        return self.nominal_cores - self.cores

    def running_views(self):
        return [
            AppView(
                name="app",
                level=self.level,
                max_level=self.max_level,
                cores=self.cores,
                nominal_cores=self.nominal_cores,
            )
        ]

    def set_level(self, app_name, level):
        self.actions.append("jump" if level == self.max_level else "step")
        self.level = level

    def reclaim_core(self, app_name):
        self.actions.append("reclaim")
        self.cores -= 1

    def return_core(self, app_name):
        self.actions.append("return")
        self.cores += 1


def observe(slack):
    """An interval whose tail sits ``slack`` below QoS (negative: above)."""
    return IntervalObservation(
        time=0.0, p99=QOS - QOS * slack, qos=QOS, sample_count=10
    )


def make(level=0, reclaimed=0, max_level=4, max_reclaimable=7):
    policy = PliantPolicy()
    actuator = FakeActuator(
        level=level,
        reclaimed=reclaimed,
        max_level=max_level,
        nominal_cores=max_reclaimable + 1,  # an app keeps at least one core
    )
    return policy, actuator


def step(policy, actuator, slack):
    """One decision interval; the action taken, or None for a hold."""
    before = len(actuator.actions)
    policy.on_interval(observe(slack), actuator)
    taken = actuator.actions[before:]
    assert len(taken) <= 1
    return taken[0] if taken else None


class TestViolationTransitions:
    def test_precise_jumps_to_most_approx(self):
        policy, app = make(level=0)
        assert step(policy, app, -0.5) == "jump"
        assert app.level == 4

    def test_intermediate_level_jumps_to_most_approx(self):
        # "If ... operating at an approximation degree other than the highest
        # and a QoS violation occurs, it immediately reverts to its most
        # approximate variant."
        policy, app = make(level=2)
        step(policy, app, -0.1)
        assert app.level == 4

    def test_at_max_level_reclaims_core(self):
        policy, app = make(level=4)
        assert step(policy, app, -0.1) == "reclaim"
        assert app.reclaimed == 1

    def test_reclaims_one_core_per_interval(self):
        policy, app = make(level=4)
        for expected in (1, 2, 3):
            step(policy, app, -0.1)
            assert app.reclaimed == expected

    def test_exhausted_holds(self):
        policy, app = make(level=4, reclaimed=7)
        assert step(policy, app, -0.1) is None


class TestSlackTransitions:
    def test_returns_core_before_reducing_approximation(self):
        policy, app = make(level=4, reclaimed=2)
        assert step(policy, app, 0.2) == "return"
        assert app.reclaimed == 1
        assert app.level == 4

    def test_steps_toward_precise_after_cores_returned(self):
        policy, app = make(level=4, reclaimed=0)
        assert step(policy, app, 0.2) == "step"
        assert app.level == 3

    def test_gradual_not_jump(self):
        policy, app = make(level=4)
        step(policy, app, 0.2)
        step(policy, app, 0.2)
        assert app.level == 2

    def test_fully_relaxed_holds(self):
        policy, app = make(level=0, reclaimed=0)
        assert step(policy, app, 0.5) is None


class TestHoldBand:
    def test_met_without_slack_holds(self):
        policy, app = make(level=3, reclaimed=1)
        assert step(policy, app, 0.05) is None
        assert app.level == 3
        assert app.reclaimed == 1

    def test_exactly_at_threshold_holds(self):
        policy, app = make(level=3, reclaimed=1)
        assert observe(0.10).slack == 0.10
        assert step(policy, app, 0.10) is None


class TestFullCycle:
    def test_escalate_then_deescalate_mirror(self):
        policy, app = make()
        step(policy, app, -0.5)  # -> most approx
        step(policy, app, -0.5)  # -> reclaim 1
        step(policy, app, -0.5)  # -> reclaim 2
        assert (app.level, app.reclaimed) == (4, 2)
        # The policy waits out its minimum backoff (2 intervals) after a
        # violation before it relaxes; then it mirrors the escalation.
        assert [step(policy, app, 0.3) for _ in range(5)] == [
            None, None, "return", "return", "step",
        ]
        assert (app.level, app.reclaimed) == (3, 0)


class TestBackoff:
    """Where PliantPolicy departs from the bare Fig. 3 machine: a
    relaxation that re-triggers a violation makes the next probe wait
    four times longer, which keeps a low threshold from ping-ponging."""

    def test_backfired_relaxation_quadruples_the_wait(self):
        policy, app = make(level=4, reclaimed=1)
        step(policy, app, -0.1)  # reclaim a second core; wait 2
        step(policy, app, 0.3)
        step(policy, app, 0.3)
        assert step(policy, app, 0.3) == "return"
        assert step(policy, app, -0.1) == "reclaim"  # it backfired
        waited = [step(policy, app, 0.3) for _ in range(9)]
        assert waited == [None] * 8 + ["return"]


class TestValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PliantPolicy(slack_threshold=1.5)
