"""Colocation engine mechanics."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.cluster import build_engine
from repro.core import PliantPolicy, PrecisePolicy
from repro.core.runtime import ColocationConfig, ColocationEngine


def engine_for(service="memcached", apps=("kmeans",), policy=None, **cfg_kwargs):
    config = ColocationConfig(seed=5, **cfg_kwargs)
    return build_engine(service, list(apps), policy or PrecisePolicy(), config=config)


class TestSetup:
    def test_fair_allocation_single_app(self):
        engine = engine_for()
        assert engine.service_cores == 8
        assert engine.app_sim("kmeans").tenant.cores == 8

    def test_fair_allocation_three_apps(self):
        engine = engine_for(apps=("kmeans", "semphy", "raytrace"))
        assert engine.service_cores == 4
        for name in ("kmeans", "semphy", "raytrace"):
            assert engine.app_sim(name).tenant.cores == 4

    def test_requires_an_app(self):
        from repro.services import make_service

        with pytest.raises(ValueError):
            ColocationEngine(make_service("nginx"), [], PrecisePolicy())

    def test_instrumentation_only_when_required(self):
        precise_engine = engine_for(policy=PrecisePolicy())
        assert precise_engine.app_sim("kmeans").instrumentor is None
        pliant_engine = engine_for(policy=PliantPolicy(seed=5))
        assert pliant_engine.app_sim("kmeans").instrumentor is not None


class TestRun:
    def test_app_completes(self):
        result = engine_for().run()
        outcome = result.app_outcome("kmeans")
        assert outcome.completed
        assert outcome.finish_time > 0

    def test_stops_at_completion(self):
        result = engine_for().run()
        finish = result.app_outcome("kmeans").finish_time
        assert result.epoch_times[-1] == pytest.approx(finish, abs=0.2)

    def test_horizon_caps_run(self):
        result = engine_for(horizon=5.0).run()
        assert result.epoch_times[-1] <= 5.0
        assert not result.app_outcome("kmeans").completed

    def test_timeline_shapes_consistent(self):
        result = engine_for(horizon=10.0).run()
        n = len(result.epoch_times)
        assert len(result.epoch_p99) == n
        assert len(result.epoch_service_cores) == n
        assert len(result.epoch_app_levels["kmeans"]) == n
        assert len(result.epoch_app_cores["kmeans"]) == n

    def test_intervals_at_decision_boundary(self):
        result = engine_for(horizon=10.0, decision_interval=2.0).run()
        times = [rec.observation.time for rec in result.intervals]
        assert times == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0])

    def test_reproducible(self):
        a = engine_for().run()
        b = engine_for().run()
        assert np.array_equal(a.epoch_p99, b.epoch_p99)
        assert a.app_outcome("kmeans").finish_time == b.app_outcome("kmeans").finish_time

    def test_seed_matters(self):
        a = engine_for().run()
        config = ColocationConfig(seed=6)
        b = build_engine("memcached", ["kmeans"], PrecisePolicy(), config=config).run()
        assert not np.array_equal(a.epoch_p99, b.epoch_p99)

    def test_negative_qps_mid_run_raises(self):
        from repro.services.loadgen import LoadGenerator

        class GoesNegative(LoadGenerator):
            def qps_at(self, time):
                return 20000.0 if time < 1.55 else -1.0

        engine = build_engine(
            "memcached", ["kmeans"], PrecisePolicy(), loadgen=GoesNegative()
        )
        with pytest.raises(ValueError, match="qps must be non-negative"):
            engine.run()

    def test_negative_utilization_raises(self):
        from repro.cluster import ladder_for
        from repro.services import make_service
        from repro.services.base import InterferenceSensitivity

        # Contention that deflates service time drives inflation below zero.
        service = make_service("memcached")
        service.sensitivity = InterferenceSensitivity(llc=-1e3)
        engine = ColocationEngine(
            service, [(make_app("kmeans"), ladder_for("kmeans"))], PrecisePolicy()
        )
        with pytest.raises(ValueError, match="utilization must be non-negative"):
            engine.run()


class TestPreciseBaseline:
    def test_never_acts(self):
        result = engine_for().run()
        assert all(rec.action_summary == "hold" for rec in result.intervals)
        assert result.app_outcome("kmeans").inaccuracy_pct == 0.0
        assert result.max_cores_reclaimed() == 0

    def test_violates_qos(self):
        result = engine_for().run()
        assert result.qos_ratio > 1.3


class TestProgressModel:
    def test_fewer_cores_slower(self):
        fast = engine_for().run().app_outcome("kmeans").finish_time

        class TakeCores(PrecisePolicy):
            name = "take-cores"
            done = False

            def on_interval(self, obs, actuator):
                if not self.done:
                    for _ in range(4):
                        actuator.reclaim_core("kmeans")
                    self.done = True

        slow = engine_for(policy=TakeCores()).run().app_outcome("kmeans").finish_time
        assert slow > fast

    def test_instrumented_run_is_slower(self):
        # Same allocation; Pliant's instrumentation overhead must show up if
        # the app stays precise.  Use a do-nothing instrumented policy.
        class InstrumentedHold(PrecisePolicy):
            requires_instrumentation = True
            name = "instrumented-hold"

        precise = engine_for().run().app_outcome("kmeans").finish_time
        instrumented = (
            engine_for(policy=InstrumentedHold()).run().app_outcome("kmeans").finish_time
        )
        assert instrumented > precise


class TestAggregates:
    def test_aggregate_excludes_warmup(self):
        result = engine_for(horizon=20.0).run()
        assert result.warmup_seconds > 0
        assert result.aggregate_p99 > 0

    def test_mean_at_least_median_under_spikes(self):
        result = engine_for(policy=PliantPolicy(seed=5)).run()
        assert result.mean_epoch_p99 >= result.aggregate_p99 * 0.8

    def test_qos_met_fraction_bounds(self):
        result = engine_for(horizon=10.0).run()
        assert 0.0 <= result.qos_met_fraction() <= 1.0

    def test_missing_app_lookup(self):
        result = engine_for(horizon=5.0).run()
        with pytest.raises(LookupError):
            result.app_outcome("ghost")


class TestContentionCache:
    """Contention is planned once per configuration, evaluated once per QPS."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        """Counts plan builds and evaluations, and checks that every build
        answers an invalidation and no app advances on a stale plan."""
        from repro.core.runtime import AppSim, ContentionPlan

        counts = {"builds": 0, "evaluations": 0, "invalidations": 0, "stale": False}

        def invalidated():
            counts["invalidations"] += 1
            counts["stale"] = True

        def building(plan, *args, _init=ContentionPlan.__init__):
            assert counts["stale"] or counts["builds"] == 0
            counts["stale"] = False
            counts["builds"] += 1
            _init(plan, *args)

        def evaluating(plan, qps, _evaluate=ContentionPlan.evaluate):
            counts["evaluations"] += 1
            return _evaluate(plan, qps)

        def advancing(sim, dt, now, _advance=AppSim.advance):
            assert not counts["stale"]
            finished = _advance(sim, dt, now)
            if sim.finished:
                invalidated()
            return finished

        monkeypatch.setattr(ContentionPlan, "__init__", building)
        monkeypatch.setattr(ContentionPlan, "evaluate", evaluating)
        monkeypatch.setattr(AppSim, "advance", advancing)
        for name in ("apply_level", "move_core"):

            def acting(engine, *args, _method=getattr(ColocationEngine, name), **kwargs):
                invalidated()
                return _method(engine, *args, **kwargs)

            monkeypatch.setattr(ColocationEngine, name, acting)
        return counts

    @pytest.mark.parametrize(
        "apps", [("kmeans",), ("kmeans", "raytrace"), ("kmeans", "semphy", "raytrace")]
    )
    def test_one_build_per_invalidation(self, counts, apps):
        result = engine_for(apps=apps, policy=PliantPolicy(seed=5)).run()
        # Invalidations before the same app advance share one build, and
        # those after the last advance need none.
        assert 1 < counts["builds"] <= 1 + counts["invalidations"]
        assert counts["builds"] < len(result.epoch_times)
        # Constant load: each build is evaluated once, at the one QPS.
        assert counts["evaluations"] == counts["builds"]

    def test_precise_run_plans_once(self, counts):
        result = engine_for().run()
        assert result.app_outcome("kmeans").completed
        # kmeans finishing ends the run, so nothing rebuilds after it.
        assert counts["builds"] == 1
        assert counts["evaluations"] == 1

    def test_qps_change_evaluates_without_rebuilding(self, counts):
        from repro.services.loadgen import StepLoad

        engine = build_engine(
            "memcached",
            ["kmeans"],
            PrecisePolicy(),
            config=ColocationConfig(seed=5, horizon=3.0),
            loadgen=StepLoad(steps=((0.0, 20000.0), (1.0, 30000.0), (2.0, 25000.0))),
        )
        engine.run()
        assert counts["builds"] == 1
        assert counts["evaluations"] == 3  # one per distinct QPS

    def test_qps_change_refreshes_no_tenant(self, monkeypatch):
        from repro.server import tenant as tenant_module
        from repro.server.tenant import Tenant
        from repro.services.loadgen import StepLoad

        engine = build_engine(
            "memcached",
            ["kmeans"],
            PrecisePolicy(),
            config=ColocationConfig(seed=5, horizon=3.0),
            loadgen=StepLoad(steps=((0.0, 20000.0), (1.0, 30000.0), (2.0, 25000.0))),
        )
        refreshed: list[str] = []
        computed = []
        original = tenant_module.contribution

        def counting(profile, cores):
            computed.append(cores)
            return original(profile, cores)

        monkeypatch.setattr(tenant_module, "contribution", counting)
        for method in ("set_profile", "give_core", "take_core"):

            def recording(self, *args, _method=getattr(Tenant, method)):
                refreshed.append(self.name)
                return _method(self, *args)

            monkeypatch.setattr(Tenant, method, recording)
        engine.run()
        # The service was refreshed when the engine built its plan; the
        # QPS changes refresh no tenant.
        assert refreshed == []
        assert computed == []

    def test_scripted_actions_match_golden_digest(self):
        import json

        from repro.sweep.digest import result_digest
        from tests.golden.panel import DIGESTS_PATH, SCRIPTED_LABEL, scripted_result

        result = scripted_result()
        summaries = [r.action_summary for r in result.intervals if r.action_summary != "hold"]
        assert summaries == [
            "kmeans: level 0->2",
            "kmeans: cores 8->7",
            "kmeans: cores 7->8",
            "kmeans: level 2->0",
        ]
        pinned = json.loads(DIGESTS_PATH.read_text())["digests"][SCRIPTED_LABEL]
        assert result_digest(result) == pinned

    def test_level_lookups_match_fresh_computation(self):
        sim = engine_for().app_sim("kmeans")
        assert len(sim.level_profiles) == sim.ladder.max_level + 1
        for level, variant in enumerate(sim.ladder.levels):
            sim.level = level
            assert sim.active_profile() == variant.scaled_profile(sim.app.metadata.profile)
            assert sim.level_elides[level] == any(v is True for v in variant.spec.values())
            assert sim.level_time_factors[level] == variant.time_factor
            assert sim.level_inaccuracies[level] == variant.inaccuracy_pct
