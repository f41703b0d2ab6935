"""Colocation engine mechanics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import ALL_APP_NAMES, make_app
from repro.cluster.colocation import build_engine, ladder_for
from repro.core import PliantPolicy, PrecisePolicy, runtime
from repro.core.monitor import IntervalObservation
from repro.core.policy import RuntimePolicy
from repro.core.runtime import AppSim, ColocationConfig, ColocationEngine
from repro.search.ladder import ApproxLadder
from repro.server.tenant import Tenant, TenantKind
from repro.services import make_service
from repro.sweep import Scenario
from repro.sweep.policies import make_policy, registered_policies


def engine_for(
    service="memcached", apps=("kmeans",), policy=None, loadgen=None, seed=5, **cfg_kwargs
):
    """An engine under ``policy`` (precise by default).  Built from
    objects: most policies and loads here are ones no scenario names."""
    return ColocationEngine(
        make_service(service),
        [(make_app(name), ladder_for(name)) for name in apps],
        policy or PrecisePolicy(),
        ColocationConfig(seed=seed, **cfg_kwargs),
        loadgen=loadgen,
    )


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
        with pytest.raises(ValueError):
            ColocationEngine(make_service("nginx"), [], PrecisePolicy())

    def test_instrumentation_only_when_required(self):
        precise = engine_for(policy=PrecisePolicy()).app_sim("kmeans")
        assert not precise.instrumented
        assert precise.instrumentation_factor == 1.0
        pliant = engine_for(policy=PliantPolicy(seed=5)).app_sim("kmeans")
        assert pliant.instrumented
        overhead = make_app("kmeans").metadata.dynrio_overhead
        assert pliant.instrumentation_factor == 1.0 + overhead > 1.0

    @pytest.mark.parametrize("name", ALL_APP_NAMES)
    def test_each_app_pays_its_measured_overhead(self, name):
        """An instrumented app runs slower by its own measured DynamoRIO
        overhead, inside the paper's band (8.9% at most); a precise one
        pays nothing."""
        overhead = make_app(name).metadata.dynrio_overhead
        pliant = engine_for(apps=(name,), policy=PliantPolicy(seed=5)).app_sim(name)
        assert pliant.instrumented
        assert pliant.instrumentation_factor == 1.0 + overhead
        assert 1.0 < pliant.instrumentation_factor <= 1.089 + 1e-9
        precise = engine_for(apps=(name,)).app_sim(name)
        assert not precise.instrumented
        assert precise.instrumentation_factor == 1.0

    @pytest.mark.parametrize("policy", registered_policies())
    def test_each_registered_policy_instruments_as_it_declares(self, policy):
        """Instrumentation follows ``requires_instrumentation``, and a run
        counts one switch per entry of the level trace (none for a policy
        that runs uninstrumented)."""
        kwargs = (("levels", (("kmeans", 1),)),) if policy == "static-level" else ()
        scenario = Scenario(
            "memcached", "kmeans", policy=policy, policy_kwargs=kwargs, horizon=5.0
        )
        engine = build_engine(scenario)
        sim = engine.app_sim("kmeans")
        instrumented = make_policy(scenario).requires_instrumentation
        assert sim.instrumented == instrumented
        overhead = make_app("kmeans").metadata.dynrio_overhead
        assert sim.instrumentation_factor == (1.0 + overhead if instrumented else 1.0)
        (outcome,) = engine.run().apps
        assert outcome.switches == len(sim.level_trace)
        if not instrumented:
            assert outcome.switches == 0


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
        b = engine_for(seed=6).run()
        assert not np.array_equal(a.epoch_p99, b.epoch_p99)

    def test_negative_qps_mid_run_raises(self):
        from repro.services.loadgen import LoadGenerator

        class GoesNegative(LoadGenerator):
            def qps_at(self, time):
                return 20000.0 if time < 1.55 else -1.0

        engine = engine_for(seed=0, loadgen=GoesNegative())
        with pytest.raises(ValueError, match="qps must be non-negative"):
            engine.run()

    def test_negative_utilization_raises(self):
        from repro.services.base import InterferenceSensitivity

        # Contention that deflates service time drives inflation below zero.
        service = make_service("memcached")
        service.sensitivity = InterferenceSensitivity(llc=-1e3)
        engine = ColocationEngine(
            service, [(make_app("kmeans"), ladder_for("kmeans"))], PrecisePolicy()
        )
        with pytest.raises(ValueError, match="utilization must be non-negative"):
            engine.run()


class ScriptedPolicy(RuntimePolicy):
    """Runs ``script(actuator)`` at every decision interval."""

    requires_instrumentation = True

    def __init__(self, script) -> None:
        self.script = script

    def on_interval(self, obs, actuator) -> None:
        self.script(actuator)


class TestActionSummary:
    def test_hold_takes_no_snapshot(self, monkeypatch):
        snapshots = []
        fingerprint = ColocationEngine._action_fingerprint
        monkeypatch.setattr(
            ColocationEngine,
            "_action_fingerprint",
            lambda self: snapshots.append(1) or fingerprint(self),
        )
        result = engine_for(policy=PliantPolicy(seed=5), horizon=3.0, load_fraction=0.3).run()
        assert [r.action_summary for r in result.intervals] == ["hold"] * 3
        assert snapshots == []

    def test_actuations_undone_in_the_interval_hold(self):
        def up_and_back(actuator):
            actuator.set_level("kmeans", 1)
            actuator.reclaim_core("kmeans")
            actuator.return_core("kmeans")
            actuator.set_level("kmeans", 0)

        result = engine_for(policy=ScriptedPolicy(up_and_back), horizon=3.0).run()
        assert [r.action_summary for r in result.intervals] == ["hold"] * 3

    def test_summary_names_each_change_against_the_intervals_start(self):
        def script(actuator):
            if actuator.cores_of("kmeans") == 8:
                actuator.set_level("kmeans", 1)
                actuator.reclaim_core("kmeans")
                actuator.set_level("kmeans", 2)
                actuator.reclaim_core("kmeans")

        result = engine_for(policy=ScriptedPolicy(script), horizon=2.0).run()
        assert [r.action_summary for r in result.intervals] == [
            "kmeans: level 0->2; kmeans: cores 8->6",
            "hold",
        ]


class TestColumnarResult:
    """A run keeps its intervals as columns and builds no record until
    ``intervals`` is read; its traces are one int64 value per epoch."""

    def test_run_builds_no_interval_record(self, monkeypatch):
        seen = []
        policy = ScriptedPolicy(lambda actuator: None)
        policy.on_interval = lambda obs, actuator: seen.append(obs)
        built = []
        record = runtime.IntervalRecord
        monkeypatch.setattr(
            runtime,
            "IntervalRecord",
            lambda *args, **kwargs: built.append(1) or record(*args, **kwargs),
        )
        result = engine_for(policy=policy, horizon=10.0).run()
        assert built == []
        assert "intervals" not in vars(result)
        assert result.qos_met_fraction() >= 0.0
        assert "intervals" not in vars(result)
        assert all(type(obs) is IntervalObservation for obs in seen)
        assert [r.observation for r in result.intervals] == seen
        assert len(built) == len(seen) == 10
        assert all(type(r) is record for r in result.intervals)

    @staticmethod
    def _assert_one_int64_per_epoch(result):
        n = len(result.epoch_times)
        columns = [
            result.epoch_service_cores,
            *result.epoch_app_levels.values(),
            *result.epoch_app_cores.values(),
        ]
        for column in columns:
            assert column.dtype == np.int64
            assert column.shape == (n,)
        assert result.epoch_times.dtype == result.epoch_p99.dtype == np.float64
        assert result.epoch_p99.shape == (n,)

    @staticmethod
    def _levels_from_trace(result, name):
        """Each epoch's level, from the app's ``(time, level)`` switches: a
        switch at a boundary holds from the epoch that starts there."""
        trace = result.app_outcome(name).level_trace
        return [
            ([0] + [level for time, level in trace if time <= t])[-1]
            for t in result.epoch_times
        ]

    def test_run_ending_mid_interval_at_the_horizon(self):
        result = engine_for(
            apps=("kmeans", "raytrace"), policy=PliantPolicy(seed=5), horizon=12.35
        ).run()
        assert len(result.epoch_times) == 124
        assert len(result.intervals) == 12
        self._assert_one_int64_per_epoch(result)
        for name in ("kmeans", "raytrace"):
            assert result.epoch_app_levels[name].tolist() == self._levels_from_trace(
                result, name
            )

    def test_run_whose_apps_finish_mid_interval(self):
        result = engine_for(policy=PliantPolicy(seed=5), load_fraction=0.3).run()
        epochs = len(result.epoch_times)
        finish = result.app_outcome("kmeans").finish_time
        assert epochs % 10 != 0
        assert len(result.intervals) == epochs // 10
        assert result.epoch_times[-1] < finish <= result.epoch_times[-1] + 0.1 + 1e-9
        self._assert_one_int64_per_epoch(result)
        assert result.epoch_app_levels["kmeans"].tolist() == self._levels_from_trace(
            result, "kmeans"
        )

    def test_cores_after_a_reclaimed_core(self):
        intervals = []

        def script(actuator):
            intervals.append(1)
            if len(intervals) == 3:
                actuator.reclaim_core("kmeans")
            elif len(intervals) == 5:
                actuator.return_core("kmeans")

        result = engine_for(policy=ScriptedPolicy(script), horizon=7.95).run()
        assert result.epoch_app_cores["kmeans"].tolist() == [8] * 30 + [7] * 20 + [8] * 30
        assert result.epoch_service_cores.tolist() == [8] * 30 + [9] * 20 + [8] * 30
        outcome = result.app_outcome("kmeans")
        assert (outcome.min_cores, outcome.max_reclaimed) == (7, 1)
        assert result.max_cores_reclaimed() == 1
        self._assert_one_int64_per_epoch(result)


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

        engine = engine_for(
            horizon=3.0,
            loadgen=StepLoad(steps=((0.0, 20000.0), (1.0, 30000.0), (2.0, 25000.0))),
        )
        engine.run()
        assert counts["builds"] == 1
        assert counts["evaluations"] == 3  # one per distinct QPS

    def test_qps_change_refreshes_no_tenant(self, monkeypatch):
        from repro.server import tenant as tenant_module
        from repro.server.tenant import Tenant
        from repro.services.loadgen import StepLoad

        engine = engine_for(
            horizon=3.0,
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

    def test_level_tables_follow_a_ladder_changed_in_place(self):
        ladder = ApproxLadder("kmeans", list(ladder_for("kmeans").levels))
        app = make_app("kmeans")

        def sim():
            tenant = Tenant("kmeans", TenantKind.APPROXIMATE, app.metadata.profile, 4)
            return AppSim(app=app, ladder=ladder, tenant=tenant)

        first = sim()
        top = ladder.levels.pop()
        shorter = sim()
        assert shorter.level_time_factors == first.level_time_factors[:-1]
        ladder.levels.append(replace(top, time_factor=top.time_factor / 2))
        changed = sim()
        assert changed.level_time_factors[-1] == top.time_factor / 2
        assert changed.level_time_factors[:-1] == first.level_time_factors[:-1]

    @pytest.mark.parametrize("name", ALL_APP_NAMES)
    def test_level_lookups_match_fresh_computation(self, name):
        sim = engine_for(apps=(name,)).app_sim(name)
        assert len(sim.level_profiles) == sim.ladder.max_level + 1
        for level, variant in enumerate(sim.ladder.levels):
            sim.level = level
            assert sim.active_profile() == variant.scaled_profile(sim.app.metadata.profile)
            assert sim.level_elides[level] == any(v is True for v in variant.spec.values())
            assert sim.level_time_factors[level] == variant.time_factor
            assert sim.level_inaccuracies[level] == variant.inaccuracy_pct
            assert sim.level_traffic_rates[level] == variant.traffic_rate_factor
