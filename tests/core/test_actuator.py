"""Actuator: level switches and core moves."""

import pytest

from repro.apps import ALL_APP_NAMES, make_app
from repro.cluster.colocation import build_engine, ladder_for
from repro.core.actuator import SWITCH_PAUSE
from repro.core.policy import RuntimePolicy
from repro.core.runtime import ColocationConfig, ColocationEngine
from repro.services import make_service
from repro.sweep import Scenario


@pytest.fixture()
def engine():
    return build_engine(Scenario("nginx", "kmeans", seed=8))


class TestSetLevel:
    def test_starts_precise(self, engine):
        sim = engine.app_sim("kmeans")
        assert engine._actuator.level_of("kmeans") == sim.level == 0
        assert sim.level_trace == []
        assert sim.pause_remaining == 0.0
        assert sim.tenant.profile == sim.ladder.variant(0).scaled_profile(
            sim.app.metadata.profile
        )

    def test_switch_updates_everything(self, engine):
        actuator = engine._actuator
        sim = engine.app_sim("kmeans")
        actuator.set_level("kmeans", 1)
        assert sim.level == 1
        assert sim.level_trace == [(0.0, 1)]
        assert sim.pause_remaining == SWITCH_PAUSE
        actuator.set_level("kmeans", 0)
        assert sim.level_trace == [(0.0, 1), (0.0, 0)]
        assert sim.pause_remaining == 2 * SWITCH_PAUSE

    def test_noop_switch_free(self, engine):
        actuator = engine._actuator
        actuator.set_level("kmeans", 0)
        assert engine.app_sim("kmeans").level_trace == []
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


@pytest.mark.parametrize("name", ALL_APP_NAMES)
def test_every_app_switches_through_its_ladder(name):
    """Each switch, up through every level and back to precise, adds one
    trace entry and one pause, and gives the tenant that level's profile."""
    engine = build_engine(Scenario("memcached", name, seed=8))
    actuator, sim = engine._actuator, engine.app_sim(name)
    levels = [*range(1, sim.ladder.max_level + 1), 0]
    for count, level in enumerate(levels, start=1):
        actuator.set_level(name, level)
        assert actuator.level_of(name) == sim.level == level
        assert len(sim.level_trace) == count
        assert sim.level_trace[-1] == (0.0, level)
        assert sim.pause_remaining == pytest.approx(count * SWITCH_PAUSE)
        assert sim.tenant.profile == sim.ladder.variant(level).scaled_profile(
            make_app(name).metadata.profile
        )


def test_precise_engine_refuses_a_switch():
    engine = build_engine(Scenario("nginx", "kmeans", policy="precise", seed=8))
    with pytest.raises(ValueError, match="requires_instrumentation"):
        engine._actuator.set_level("kmeans", 1)
    assert engine.app_sim("kmeans").level_trace == []


class UninstrumentedSwitch(RuntimePolicy):
    """A policy that switches levels but leaves requires_instrumentation
    at its default (False)."""

    name = "uninstrumented-switch"

    def on_interval(self, obs, actuator) -> None:
        actuator.set_level("kmeans", 1)


def test_uninstrumented_switch_fails_loudly():
    engine = ColocationEngine(
        make_service("nginx"),
        [(make_app("kmeans"), ladder_for("kmeans"))],
        UninstrumentedSwitch(),
        ColocationConfig(seed=8, horizon=3.0),
    )
    # The no-op and range checks come first.
    engine._actuator.set_level("kmeans", 0)
    with pytest.raises(IndexError):
        engine._actuator.set_level("kmeans", 42)
    with pytest.raises(ValueError, match="kmeans.*requires_instrumentation"):
        engine.run()
    sim = engine.app_sim("kmeans")
    assert (sim.level, sim.level_trace, sim.pause_remaining) == (0, [], 0.0)


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
