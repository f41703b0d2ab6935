"""End-to-end search acceptance: parity, determinism, budgets, resume.

The contracts that make budgeted search trustworthy:

* ``strategy="grid"`` is bit-identical to the plain exhaustive path on
  every backend — the parity reference.
* Stochastic strategies under a fixed ``rng_seed`` evaluate the *same
  point sequence* serial vs. distributed (results are a pure function
  of the scenario, so observations can't diverge).
* ``budget`` is a hard ceiling on unique evaluations.
* Re-running an interrupted/finished search replays the sequence out of
  the content-addressed cache.
"""

import pytest

from repro.experiment import ExperimentSpec, run_experiment
from repro.search import SearchResult
from repro.sweep import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    SweepCache,
)

SPEC = ExperimentSpec(
    name="search-acceptance",
    base={
        "service": "memcached",
        "apps": "kmeans",
        "horizon": 10.0,
        "monitor_epoch": 0.5,
    },
    axes={
        "load_fraction": (0.5, 0.6, 0.7, 0.8),
        "slack_threshold": (0.05, 0.10),
        "decision_interval": (1.0, 2.0),
    },
)


def _distributed(tmp_path, tag=""):
    return DistributedBackend(
        tmp_path / f"spool{tag}",
        cache=SweepCache(tmp_path / f"cache{tag}"),
        local_workers=2,
        timeout=300.0,
        poll_interval=0.05,
    )


def _sequence(result):
    return [outcome.scenario for outcome in result]


class TestGridParity:
    def test_grid_identical_to_plain_on_all_backends(self, tmp_path):
        plain = run_experiment(SPEC, backend=SerialBackend())
        for backend in (
            SerialBackend(),
            ProcessBackend(2),
            _distributed(tmp_path),
        ):
            searched = run_experiment(SPEC, strategy="grid", backend=backend)
            assert isinstance(searched, SearchResult)
            assert searched.identical(plain), type(backend).__name__

    def test_grid_search_result_accounting(self):
        result = run_experiment(SPEC, strategy="grid", workers=1)
        assert result.evaluations == result.space_size == len(SPEC)
        assert result.fraction_evaluated == 1.0
        assert len(result.rounds) == 1


class TestDeterminismAcrossBackends:
    @pytest.mark.parametrize("strategy", ["halving", "pareto"])
    def test_serial_and_distributed_evaluate_same_sequence(
        self, tmp_path, strategy
    ):
        serial = run_experiment(
            SPEC, strategy=strategy, budget=8, rng_seed=11,
            backend=SerialBackend(),
        )
        distributed = run_experiment(
            SPEC, strategy=strategy, budget=8, rng_seed=11,
            backend=_distributed(tmp_path, tag=strategy),
        )
        assert _sequence(serial) == _sequence(distributed)
        assert serial.identical(distributed)

    def test_different_seed_different_sequence(self):
        a = run_experiment(SPEC, strategy="random", budget=6, rng_seed=1,
                           workers=1)
        b = run_experiment(SPEC, strategy="random", budget=6, rng_seed=2,
                           workers=1)
        assert _sequence(a) != _sequence(b)


class TestBudget:
    @pytest.mark.parametrize("strategy,budget", [
        ("random", 5),
        ("halving", 7),
        ("pareto", 10),
    ])
    def test_budget_is_a_hard_ceiling(self, strategy, budget):
        result = run_experiment(
            SPEC, strategy=strategy, budget=budget, rng_seed=0, workers=1
        )
        assert 0 < result.evaluations <= budget

    def test_search_fields_recorded_on_result_spec(self):
        result = run_experiment(SPEC, strategy="random", budget=4, rng_seed=9,
                                workers=1)
        assert result.spec.strategy == "random"
        assert result.spec.budget == 4
        assert result.spec.rng_seed == 9
        assert result.spec.objective  # resolved objective written back


class TestSpecDrivenSearch:
    def test_spec_with_search_round_trips_and_drives(self):
        spec = SPEC.with_search(strategy="halving", budget=8, rng_seed=3)
        assert spec.search_requested
        reloaded = ExperimentSpec.from_json(spec.to_json())
        assert reloaded == spec
        direct = run_experiment(spec, workers=1)
        keyword = run_experiment(SPEC, strategy="halving", budget=8,
                                 rng_seed=3, workers=1)
        assert isinstance(direct, SearchResult)
        assert _sequence(direct) == _sequence(keyword)

    def test_plain_spec_still_takes_exhaustive_path(self):
        result = run_experiment(SPEC, workers=1)
        assert not isinstance(result, SearchResult)

    def test_raw_scenarios_cannot_search(self):
        with pytest.raises(TypeError, match="axes"):
            run_experiment(SPEC.scenarios(), strategy="random", budget=4)


class TestResume:
    @pytest.mark.parametrize("strategy", ["halving", "pareto"])
    def test_rerun_completes_from_cache(self, tmp_path, strategy):
        cache = SweepCache(tmp_path / "cache")
        cold = run_experiment(SPEC, strategy=strategy, budget=8, rng_seed=4,
                              cache=cache, workers=1)
        warm = run_experiment(SPEC, strategy=strategy, budget=8, rng_seed=4,
                              cache=cache, workers=1)
        assert _sequence(warm) == _sequence(cold)
        # Acceptance asks >= 95%; determinism actually delivers 100%.
        assert warm.cache_hits == warm.evaluations
        assert warm.identical(cold)

    def test_search_caches_by_default(self, tmp_path, monkeypatch):
        # Unlike the exhaustive path (cache is opt-in there), a search
        # with no substrate knobs still memoizes: killing it and
        # re-running the same seed must complete from disk, in a fresh
        # process as much as in this one.  REPRO_SWEEP_CACHE picks the
        # directory.
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "default"))
        cold = run_experiment(SPEC, strategy="halving", budget=8, rng_seed=4)
        warm = run_experiment(SPEC, strategy="halving", budget=8, rng_seed=4)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.evaluations
        assert _sequence(warm) == _sequence(cold)


class TestQuality:
    def test_halving_best_within_5pct_of_exhaustive(self):
        exhaustive = run_experiment(SPEC, strategy="grid", workers=1)
        searched = run_experiment(SPEC, strategy="halving", budget=8,
                                  rng_seed=0, workers=1)
        true_best = exhaustive.best_value()
        found = searched.best_value()
        assert found is not None and true_best is not None
        assert found >= true_best * 0.95
        assert searched.evaluations <= 8

    def test_off_grid_probes_never_win_best(self):
        searched = run_experiment(SPEC, strategy="halving", budget=8,
                                  rng_seed=0, workers=1)
        # Halving's early rungs probe reduced horizons; those outcomes are
        # kept (and cached) but best()/frontier() only see grid points.
        assert any(o.scenario.horizon < 10.0 for o in searched)
        assert searched.best_scenario.horizon == 10.0
        assert all(o.scenario.horizon == 10.0 for o in searched.frontier())
