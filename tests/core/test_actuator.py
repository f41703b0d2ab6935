"""Actuator: signal-driven switching and core moves."""

import pytest

from repro.cluster import build_engine
from repro.core import PliantPolicy
from repro.core.runtime import ColocationConfig


@pytest.fixture()
def engine():
    return build_engine(
        "nginx", ["kmeans"], PliantPolicy(seed=8), config=ColocationConfig(seed=8)
    )


class TestSetLevel:
    def test_switch_updates_everything(self, engine):
        actuator = engine._actuator
        sim = engine.app_sim("kmeans")
        actuator.set_level("kmeans", 1)
        assert sim.level == 1
        assert sim.instrumentor.active_level == 1
        assert sim.pause_remaining > 0
        assert sim.instrumentor.switches == 1

    def test_noop_switch_free(self, engine):
        actuator = engine._actuator
        actuator.set_level("kmeans", 0)
        assert engine.app_sim("kmeans").instrumentor.switches == 0
        assert engine.app_sim("kmeans").pause_remaining == 0

    def test_profile_rescaled(self, engine):
        actuator = engine._actuator
        sim = engine.app_sim("kmeans")
        before = sim.tenant.profile.membw_per_core
        actuator.set_level("kmeans", sim.ladder.max_level)
        after = sim.tenant.profile.membw_per_core
        assert after != before

    def test_out_of_range(self, engine):
        with pytest.raises(IndexError):
            engine._actuator.set_level("kmeans", 42)


class TestCoreMoves:
    def test_reclaim_and_return(self, engine):
        actuator = engine._actuator
        actuator.reclaim_core("kmeans")
        assert actuator.cores_of("kmeans") == 7
        assert actuator.service_cores == 9
        actuator.return_core("kmeans")
        assert actuator.cores_of("kmeans") == 8
        assert actuator.service_cores == 8


class TestObservation:
    def test_views(self, engine):
        actuator = engine._actuator
        assert actuator.running_apps() == ["kmeans"]
        assert actuator.level_of("kmeans") == 0
        assert actuator.max_level("kmeans") >= 1
        assert actuator.nominal_cores("kmeans") == 8
        view = actuator.app_view("kmeans")
        assert view.name == "kmeans"
        assert len(view.level_inaccuracies) == actuator.max_level("kmeans") + 1
