"""PliantPolicy and baseline policies on the live engine."""

import pytest

from repro.core import PliantPolicy
from repro.sweep import Scenario, run_scenario


def run(service, apps, policy, **fields):
    return run_scenario(Scenario(service, apps, policy=policy, seed=3, **fields))


class TestPliantPolicy:
    def test_reacts_to_violation(self):
        result = run("memcached", ["kmeans"], "pliant")
        levels = result.epoch_app_levels["kmeans"]
        assert levels.max() > 0  # it escalated

    def test_meets_qos_when_precise_does_not(self):
        precise = run("memcached", ["kmeans"], "precise")
        pliant = run("memcached", ["kmeans"], "pliant")
        assert not precise.qos_met
        assert pliant.qos_met

    def test_jumps_to_most_approximate_first(self):
        result = run("memcached", ["kmeans"], "pliant")
        trace = result.app_outcome("kmeans").level_trace
        # First action is a jump straight to the ladder top, not level 1.
        assert trace[0][1] > 1

    def test_bounded_inaccuracy(self):
        result = run("memcached", ["kmeans"], "pliant")
        assert result.app_outcome("kmeans").inaccuracy_pct <= 5.5

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PliantPolicy(slack_threshold=-0.1)

    def test_rejects_bad_backoff(self):
        with pytest.raises(ValueError):
            PliantPolicy(min_backoff=0)
        with pytest.raises(ValueError):
            PliantPolicy(min_backoff=10, max_backoff=5)


class TestMultiApp:
    def test_two_apps_managed(self):
        result = run("memcached", ["canneal", "bayesian"], "pliant")
        assert result.qos_met
        for name in ("canneal", "bayesian"):
            assert result.app_outcome(name).inaccuracy_pct <= 5.5

    def test_no_disproportionate_penalty(self):
        result = run("nginx", ["canneal", "bayesian"], "pliant")
        reclaimed = [a.max_reclaimed for a in result.apps]
        assert max(reclaimed) - min(reclaimed) <= 2


class TestStaticMostApprox:
    def test_pins_max_level(self):
        result = run("mongodb", ["kmeans"], "static-most-approx", horizon=12.0)
        levels = result.epoch_app_levels["kmeans"]
        assert levels[-1] == levels.max()
        assert levels.max() > 0

    def test_never_touches_cores(self):
        result = run("nginx", ["kmeans"], "static-most-approx", horizon=12.0)
        assert result.max_cores_reclaimed() == 0


class TestStaticLevel:
    def test_pins_requested_level(self):
        result = run(
            "mongodb",
            ["kmeans"],
            "static-level",
            policy_kwargs={"levels": (("kmeans", 1),)},
            horizon=12.0,
        )
        assert result.epoch_app_levels["kmeans"][-1] == 1


class TestCoreReclaimOnly:
    def test_never_approximates(self):
        result = run("memcached", ["kmeans"], "core-reclaim-only")
        assert result.epoch_app_levels["kmeans"].max() == 0
        assert result.app_outcome("kmeans").inaccuracy_pct == 0.0

    def test_reclaims_cores(self):
        result = run("memcached", ["kmeans"], "core-reclaim-only")
        assert result.max_cores_reclaimed() >= 1

    def test_slower_than_pliant_for_the_app(self):
        cores_only = run("memcached", ["kmeans"], "core-reclaim-only")
        pliant = run("memcached", ["kmeans"], "pliant")
        a = cores_only.app_outcome("kmeans").finish_time
        b = pliant.app_outcome("kmeans").finish_time
        assert a is not None and b is not None
        assert b < a  # approximation lets the app finish sooner
