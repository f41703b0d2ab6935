"""Edge cases across modules that the per-module suites don't reach."""

import os

import pytest

from repro.core.monitor import PerformanceMonitor
from repro.core.arbiter import AppView, ImpactAwareArbiter
from repro.search.variants import default_cache_dir


class TestMonitorColdStart:
    def test_empty_history_interval_is_zero(self):
        monitor = PerformanceMonitor(qos=1.0)
        obs = monitor.close_interval(1.0)
        assert obs.p99 == 0.0
        assert obs.sample_count == 0
        assert obs.qos_met  # zero latency trivially meets QoS


class TestImpactAwareWithoutMetadata:
    def test_empty_rate_tuples_default_to_zero_score(self):
        arbiter = ImpactAwareArbiter()
        bare = AppView(name="bare", level=0, max_level=2, cores=4, nominal_cores=4)
        decision = arbiter.escalate([bare])
        assert decision.action == "set_level"
        assert decision.level == 2

    def test_deescalate_without_metadata(self):
        arbiter = ImpactAwareArbiter()
        bare = AppView(name="bare", level=1, max_level=2, cores=4, nominal_cores=4)
        decision = arbiter.deescalate([bare])
        assert decision.action == "set_level"
        assert decision.level == 0

    def test_none_when_nothing_to_do(self):
        arbiter = ImpactAwareArbiter()
        relaxed = AppView(name="a", level=0, max_level=0, cores=1, nominal_cores=1)
        assert arbiter.escalate([relaxed]).action == "none"
        assert arbiter.deescalate([relaxed]).action == "none"


class TestCacheDirOverride:
    def test_env_var_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORATION_CACHE", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPLORATION_CACHE", raising=False)
        assert "repro-pliant" in str(default_cache_dir())


class TestSwitchPauseConsumption:
    def test_pause_delays_progress(self):
        from repro.cluster import build_engine
        from repro.sweep import Scenario

        engine = build_engine(Scenario("mongodb", "kmeans", policy="precise", seed=12))
        sim = engine.app_sim("kmeans")
        sim.pause_remaining = 0.25
        sim.advance(0.1, engine.now)
        assert sim.progress == 0.0
        assert sim.pause_remaining == pytest.approx(0.15)
        sim.advance(0.2, engine.now)
        assert sim.progress > 0.0
        assert sim.pause_remaining == 0.0


class TestResultOfferedQps:
    def test_reference_load_recorded(self):
        from repro.services import make_service
        from repro.sweep import Scenario, run_scenario

        scenario = Scenario("nginx", "raytrace", seed=12, horizon=4.0, load_fraction=0.5)
        result = run_scenario(scenario)
        expected = 0.5 * make_service("nginx").saturation_qps(8)
        assert result.offered_qps == pytest.approx(expected)
