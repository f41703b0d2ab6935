"""Failure injection and adversarial conditions for the runtime."""

import numpy as np
import pytest

from repro.cluster.colocation import build_engine
from repro.sweep import Scenario, run_scenario


class TestLoadSpikes:
    def test_survives_flash_crowd(self):
        """A burst to 105% of saturation must not wedge the runtime; QoS
        recovers after the burst passes."""
        result = run_scenario(
            Scenario(
                "memcached",
                "snp",
                seed=9,
                horizon=60.0,
                stop_when_apps_done=False,
                loadgen_shape="bursty",
                loadgen_params={"base": 0.6, "burst": 1.05, "period": 20.0, "duration": 4.0},
            )
        )
        # After each burst, latency must come back under QoS.
        times = result.epoch_times
        calm = (times % 20.0) > 12.0
        calm_p99 = result.epoch_p99[calm & (times > 25.0)]
        assert np.median(calm_p99) < result.qos * 1.5

    def test_step_load_drop_triggers_relaxation(self):
        """When load halves, Pliant should walk approximation back."""
        result = run_scenario(
            Scenario(
                "mongodb",
                "kmeans",
                seed=9,
                horizon=70.0,
                stop_when_apps_done=False,
                loadgen_shape="step",
                loadgen_params={"steps": ((0.0, 0.775), (30.0, 0.40))},
            )
        )
        levels = result.epoch_app_levels["kmeans"]
        late = levels[result.epoch_times > 55.0]
        early = levels[(result.epoch_times > 10.0) & (result.epoch_times < 30.0)]
        assert late.mean() <= early.mean()


class TestOverloadBeyondHelp:
    def test_saturating_load_cannot_be_fixed(self):
        """Above ~100% load no amount of approximation restores QoS
        (paper: beyond 90% load violations persist)."""
        result = run_scenario(
            Scenario(
                "memcached",
                "snp",
                seed=9,
                load_fraction=1.05,
                horizon=30.0,
                stop_when_apps_done=False,
            )
        )
        assert not result.qos_met

    def test_engine_survives_zero_load(self):
        result = run_scenario(
            Scenario(
                "nginx",
                "raytrace",
                seed=9,
                horizon=5.0,
                stop_when_apps_done=False,
                loadgen_params={"fraction": 0.0},
            )
        )
        assert result.qos_met  # no load, no violation


class TestDegenerateConfigs:
    def test_single_epoch_interval(self):
        result = run_scenario(
            Scenario(
                "mongodb",
                "kmeans",
                seed=9,
                decision_interval=0.1,
                monitor_epoch=0.1,
                horizon=10.0,
            )
        )
        assert len(result.intervals) >= 90

    def test_interval_coarser_than_run(self):
        result = run_scenario(
            Scenario(
                "mongodb",
                "kmeans",
                seed=9,
                decision_interval=500.0,
                horizon=20.0,
                stop_when_apps_done=False,
            )
        )
        assert len(result.intervals) == 0  # never reached a boundary

    def test_many_apps_fair_split(self):
        engine = build_engine(
            Scenario(
                "nginx",
                ("kmeans", "semphy", "raytrace", "water_spatial", "bayesian"),
                policy="precise",
                seed=9,
                horizon=5.0,
            )
        )
        assert engine.service_cores == 3
        total = engine.service_cores + sum(
            engine.app_sim(n).tenant.cores
            for n in ("kmeans", "semphy", "raytrace", "water_spatial", "bayesian")
        )
        assert total == 16


class TestActuatorEdges:
    def test_cannot_take_last_core(self):
        engine = build_engine(
            Scenario("nginx", "kmeans", policy="precise", seed=9, horizon=4.0)
        )
        sim = engine.app_sim("kmeans")
        for _ in range(7):
            engine.move_core("kmeans", to_service=True)
        assert sim.tenant.cores == 1
        with pytest.raises(ValueError):
            engine.move_core("kmeans", to_service=True)

    def test_invalid_level_rejected(self):
        engine = build_engine(Scenario("nginx", "kmeans", seed=9, horizon=4.0))
        with pytest.raises(IndexError):
            engine._actuator.set_level("kmeans", 99)
