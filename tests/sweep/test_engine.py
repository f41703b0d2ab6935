"""SweepEngine: fan-out determinism, memoization, policy registry."""

from dataclasses import replace

import pytest

import repro.sweep.engine as sweep_engine
from repro.cluster import colocation
from repro.core.policy import PliantPolicy
from repro.experiment import ExperimentSpec
from repro.sweep import (
    Scenario,
    SweepCache,
    SweepEngine,
    register_policy,
    registered_policies,
    results_identical,
    run_scenario,
)
from repro.sweep.policies import POLICY_REGISTRY, make_policy

#: Short-horizon scenario template: fast but long enough for decisions.
BASE = Scenario(service="mongodb", apps=("kmeans",), horizon=60.0, seed=4)


def _grid(loads=(0.5, 0.8)) -> ExperimentSpec:
    return ExperimentSpec(
        base={"service": "mongodb", "apps": "kmeans", "horizon": 60.0, "seed": 4},
        axes={"load_fraction": loads},
    )


class TestPolicyRegistry:
    def test_pliant_gets_scenario_seed(self):
        policy = make_policy(Scenario(service="nginx", apps=("kmeans",), seed=7))
        assert policy.name == "pliant"

    def test_precise(self):
        scenario = Scenario(service="nginx", apps=("kmeans",), policy="precise")
        assert make_policy(scenario).name == "precise"

    def test_kwargs_forwarded(self):
        scenario = Scenario(
            service="nginx",
            apps=("kmeans",),
            policy="static-level",
            policy_kwargs=(("levels", (("kmeans", 1),)),),
        )
        assert make_policy(scenario).name == "static-level"

    def test_unknown_policy_raises_with_known_names(self):
        scenario = Scenario(service="nginx", apps=("kmeans",), policy="nope")
        with pytest.raises(ValueError, match="pliant"):
            make_policy(scenario)

    def test_unknown_policy_error_mentions_registration(self):
        scenario = Scenario(service="nginx", apps=("kmeans",), policy="nope")
        with pytest.raises(ValueError, match="register_policy"):
            make_policy(scenario)


class TestRegisterPolicy:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        before = dict(POLICY_REGISTRY)
        yield
        POLICY_REGISTRY.clear()
        POLICY_REGISTRY.update(before)

    def test_registered_policy_resolves_by_name(self):
        from repro.core.baselines import PrecisePolicy

        register_policy("custom-precise", lambda sc, kw: PrecisePolicy())
        scenario = Scenario(
            service="nginx", apps=("kmeans",), policy="custom-precise"
        )
        assert make_policy(scenario).name == "precise"
        assert "custom-precise" in registered_policies()

    def test_builder_sees_scenario_and_kwargs(self):
        seen = {}

        def builder(scenario, kwargs):
            seen["seed"] = scenario.seed
            seen["kwargs"] = kwargs
            return PliantPolicy(**kwargs)

        register_policy("spy", builder)
        scenario = Scenario(
            service="nginx",
            apps=("kmeans",),
            policy="spy",
            policy_kwargs=(("max_backoff", 16),),
            seed=11,
        )
        make_policy(scenario)
        assert seen == {"seed": 11, "kwargs": {"max_backoff": 16}}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("pliant", lambda sc, kw: None)

    def test_overwrite_allowed_explicitly(self):
        from repro.core.baselines import PrecisePolicy

        register_policy("pliant", lambda sc, kw: PrecisePolicy(), overwrite=True)
        scenario = Scenario(service="nginx", apps=("kmeans",), policy="pliant")
        assert make_policy(scenario).name == "precise"

    def test_non_callable_builder_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            register_policy("broken", "not-a-builder")

    def test_registered_policies_sorted(self):
        names = registered_policies()
        assert list(names) == sorted(names)
        assert "pliant" in names


class TestDeterminism:
    def test_run_scenario_reproducible(self):
        a = run_scenario(BASE)
        b = run_scenario(BASE)
        assert results_identical(a, b)

    def test_seed_changes_results(self):
        a = run_scenario(BASE)
        b = run_scenario(replace(BASE, seed=5))
        assert not results_identical(a, b)

    def test_serial_vs_parallel_bit_identical(self):
        serial = SweepEngine(workers=1).run(_grid())
        parallel = SweepEngine(workers=2).run(_grid())
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert a.scenario == b.scenario
            assert results_identical(a.result, b.result)

    def test_outcomes_in_grid_order(self):
        outcomes = SweepEngine(workers=2).run(_grid(loads=(0.8, 0.5, 0.6)))
        assert [o.scenario.load_fraction for o in outcomes] == [0.8, 0.5, 0.6]


class TestMemoization:
    def test_cold_then_warm(self, tmp_path):
        engine = SweepEngine(workers=1, cache=SweepCache(tmp_path))
        cold = engine.run(_grid())
        warm = engine.run(_grid())
        assert all(not o.from_cache for o in cold)
        assert all(o.from_cache for o in warm)
        for a, b in zip(cold, warm):
            assert results_identical(a.result, b.result)

    def test_cache_shared_across_engines(self, tmp_path):
        SweepEngine(workers=1, cache=SweepCache(tmp_path)).run(_grid())
        warm = SweepEngine(workers=1, cache=SweepCache(tmp_path)).run(_grid())
        assert all(o.from_cache for o in warm)

    def test_config_change_misses(self, tmp_path):
        engine = SweepEngine(workers=1, cache=SweepCache(tmp_path))
        engine.run([BASE])
        changed = engine.run([replace(BASE, load_fraction=0.9)])
        assert not changed[0].from_cache

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = SweepCache(tmp_path)
        engine = SweepEngine(workers=1, cache=cache)
        (cold,) = engine.run([BASE])
        path = cache.path(cache.key(BASE))
        path.write_bytes(b"corrupted beyond repair")
        (recovered,) = engine.run([BASE])
        assert not recovered.from_cache
        assert results_identical(cold.result, recovered.result)
        # The recomputed result is re-stored and readable again.
        (warm,) = engine.run([BASE])
        assert warm.from_cache

    @pytest.mark.parametrize("force", [False, True])
    def test_cold_run_keys_each_scenario_once(self, tmp_path, monkeypatch, force):
        """The lookup and the write-back share one key per scenario."""
        keyed = []
        key = SweepCache.key

        def spy(self, scenario):
            keyed.append(scenario)
            return key(self, scenario)

        monkeypatch.setattr(SweepCache, "key", spy)
        cache = SweepCache(tmp_path)
        scenarios = _grid().scenarios()
        outcomes = SweepEngine(workers=1, cache=cache).run(scenarios, force=force)
        assert keyed == scenarios
        assert not any(o.from_cache for o in outcomes)
        assert cache.entry_count() == len(scenarios)

    def test_force_bypasses_cache_read(self, tmp_path):
        engine = SweepEngine(workers=1, cache=SweepCache(tmp_path))
        engine.run([BASE])
        (forced,) = engine.run([BASE], force=True)
        assert not forced.from_cache

    def test_uncached_engine_always_computes(self):
        engine = SweepEngine(workers=1)
        first = engine.run([BASE])
        second = engine.run([BASE])
        assert not first[0].from_cache and not second[0].from_cache


class TestModuleHooks:
    """A profiler times each scenario by replacing ``run_scenario`` on
    :mod:`repro.sweep.engine` and each build by replacing ``build_engine``
    on :mod:`repro.cluster.colocation`, so both are looked up at call time."""

    def test_each_scenario_runs_and_builds_through_the_module_attributes(
        self, monkeypatch
    ):
        ran, built = [], []
        run, build = sweep_engine.run_scenario, colocation.build_engine

        def counting_run(scenario):
            ran.append(scenario)
            return run(scenario)

        def counting_build(scenario):
            built.append(scenario)
            return build(scenario)

        monkeypatch.setattr(sweep_engine, "run_scenario", counting_run)
        monkeypatch.setattr(colocation, "build_engine", counting_build)
        scenarios = [BASE, replace(BASE, load_fraction=0.5)]
        outcomes = SweepEngine(workers=0).run(scenarios)
        assert ran == built == scenarios
        assert [o.scenario for o in outcomes] == scenarios


class TestApi:
    def test_effective_workers_bounded_by_pending(self):
        engine = SweepEngine(workers=8)
        assert engine.effective_workers(pending=3) == 3
        assert engine.effective_workers(pending=0) == 1

    def test_accepts_plain_scenario_list(self):
        outcomes = SweepEngine(workers=1).run([BASE])
        assert outcomes[0].scenario == BASE

    def test_duration_recorded_for_computed(self):
        (outcome,) = SweepEngine(workers=1).run([BASE])
        assert outcome.duration > 0.0
