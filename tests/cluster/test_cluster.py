"""Cluster harness: ladders, metrics, sweeps."""

import math

import pytest

from repro.apps import make_app
from repro.cluster import (
    ViolinStats,
    breakdown_outcomes,
    combination_mixes,
    ladder_for,
    summarize_pair,
)
from repro.cluster.colocation import build_engine
from repro.core import PliantPolicy
from repro.core.runtime import ColocationConfig, ColocationEngine
from repro.experiment import ExperimentSpec, run_experiment
from repro.services import make_service
from repro.services.loadgen import ConstantLoad
from repro.sweep import Scenario, run_scenario, results_identical


class TestLadderFor:
    def test_cached(self):
        assert ladder_for("kmeans") is ladder_for("kmeans")

    def test_has_levels(self):
        assert ladder_for("kmeans").max_level >= 1


class TestBuildEngine:
    def test_default_policy_is_pliant(self):
        result = build_engine(Scenario("mongodb", "kmeans", seed=4)).run()
        assert result.policy_name == "pliant"

    def test_run_scenario_runs_the_built_engine(self):
        scenario = Scenario("mongodb", "kmeans", seed=4, horizon=8.0)
        assert results_identical(
            build_engine(scenario).run(), run_scenario(scenario)
        )

    def test_custom_loadgen(self):
        # An absolute-QPS load is no scenario field: build the engine directly.
        engine = ColocationEngine(
            service=make_service("mongodb"),
            apps=[(make_app("kmeans"), ladder_for("kmeans"))],
            policy=PliantPolicy(seed=4),
            config=ColocationConfig(seed=4, horizon=8.0, stop_when_apps_done=False),
            loadgen=ConstantLoad(100.0),
        )
        assert engine.run().offered_qps > 0


class TestPolicyAxis:
    def test_keyed_by_policy_name(self):
        spec = ExperimentSpec(
            base={"service": "mongodb", "apps": "kmeans", "seed": 4},
            axes={"policy": ("precise", "pliant")},
        )
        groups = run_experiment(spec, workers=0).group_by("policy")
        assert set(groups) == {"precise", "pliant"}
        for name, results in groups.items():
            assert [r.policy_name for r in results.results] == [name]


class TestSummarizePair:
    def test_summary_fields(self):
        precise, pliant = (
            run_scenario(Scenario("mongodb", "kmeans", policy=policy, seed=4))
            for policy in ("precise", "pliant")
        )
        summary = summarize_pair(precise, pliant, "kmeans", dynrio_overhead=0.034)
        assert summary.precise_ratio > summary.pliant_ratio
        assert summary.pliant_meets_qos
        assert not math.isnan(summary.relative_exec_time)
        assert summary.inaccuracy_pct <= 5.5


class TestViolinStats:
    def test_five_numbers(self):
        stats = ViolinStats.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.median == 3.0
        assert stats.mean == 3.0
        assert stats.count == 5
        assert stats.spread() == 4.0

    def test_empty(self):
        stats = ViolinStats.from_values([])
        assert stats.count == 0
        assert math.isnan(stats.mean)


class TestCombinationMixes:
    def test_all_pairs(self):
        mixes = combination_mixes(("a", "b", "c", "d"), 2)
        assert len(mixes) == 6

    def test_sampling_deterministic(self):
        names = tuple(f"app{i}" for i in range(10))
        a = combination_mixes(names, 2, sample=5, seed=1)
        b = combination_mixes(names, 2, sample=5, seed=1)
        assert a == b
        assert len(a) == 5

    def test_sample_larger_than_population(self):
        mixes = combination_mixes(("a", "b"), 2, sample=100)
        assert mixes == [("a", "b")]


class TestBreakdown:
    def test_buckets(self):
        result = run_scenario(Scenario("mongodb", "snp", seed=4))
        breakdown = breakdown_outcomes([result])
        assert breakdown.total == 1
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
