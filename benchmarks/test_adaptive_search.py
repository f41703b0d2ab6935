"""Adaptive search vs. exhaustive sweep: the evaluations-saved claim.

The smoke spec is a 256-point colocation space small enough to also run
exhaustively, so the gate is measured, not asserted on faith: halving
with a 64-evaluation budget (25% of the grid) must land within 5% of
the exhaustive optimum.  A second check scales the space past 1024
points — far too big to sweep here — and verifies the budget ceiling
holds without the exhaustive reference.

The objective is the service's tail latency over its QoS target
(``min:qos_ratio``): only the 32 points at the lowest load lie within
5% of its optimum.  Under ``qos_met_fraction``, 160 of the 256 points
tie at the optimum of 1.0, so the gap gate passed for 62% of blind
picks.  The negative control checks that a blind pick now misses it.
A random search with halving's budget and seed is no control: its
sample starts with the very points halving's first rung draws, so it
finds at least what halving finds.

Every run appends an ``adaptive_vs_exhaustive`` entry to
BENCH_sweep.json; ``scripts/bench_check.py`` gates the trajectory.
"""

import pytest

from repro.experiment import run_experiment

from benchmarks._common import ENGINE, bench_spec, record_bench

pytestmark = pytest.mark.benchmark

#: 8 x 4 x 4 x 2 = 256 grid points.
SMOKE_SPEC = bench_spec(
    "adaptive-search-smoke",
    base={
        "service": "memcached",
        "apps": "kmeans",
        "horizon": 8.0,
        "monitor_epoch": 0.5,
    },
    axes={
        "load_fraction": tuple(0.45 + 0.05 * i for i in range(8)),
        "slack_threshold": (0.02, 0.05, 0.08, 0.12),
        "decision_interval": (0.5, 1.0, 2.0, 4.0),
    },
).with_axis("seed", (0, 1))  # with_axis moves seed out of the bench base

BUDGET = 64  # 25% of the smoke grid
OBJECTIVE = "min:qos_ratio"
GAP_PCT = 5.0


def test_halving_beats_exhaustive_on_evaluations():
    assert len(SMOKE_SPEC) == 256

    exhaustive = run_experiment(SMOKE_SPEC, engine=ENGINE)
    searched = run_experiment(
        SMOKE_SPEC, strategy="halving", budget=BUDGET, rng_seed=0,
        objective=OBJECTIVE, engine=ENGINE,
    )
    blind = run_experiment(
        SMOKE_SPEC, strategy="random", budget=1, rng_seed=0,
        objective=OBJECTIVE, engine=ENGINE,
    )

    from repro.search import parse_objective

    primary = parse_objective(OBJECTIVE)
    scores = [primary.score(o.result) for o in exhaustive]
    true_best = max(scores)

    def gap(result) -> float:
        score = primary.score(result)
        return 0.0 if true_best == 0 else 100.0 * (true_best - score) / abs(true_best)

    gap_pct = gap(searched.best().result)
    inside = sum(gap(o.result) <= GAP_PCT for o in exhaustive) / len(exhaustive)
    blind_gap_pct = gap(blind.best().result)

    record_bench(
        "adaptive_vs_exhaustive",
        {
            "grid_size": len(SMOKE_SPEC),
            "strategy": "halving",
            "objective": OBJECTIVE,
            "budget": BUDGET,
            "evaluations": searched.evaluations,
            "evaluations_fraction": round(
                searched.evaluations / len(SMOKE_SPEC), 4
            ),
            "rounds": len(searched.rounds),
            "best_exhaustive": primary.value(exhaustive[scores.index(true_best)].result),
            "best_found": primary.value(searched.best().result),
            "best_gap_pct": round(gap_pct, 4),
            "gate_fraction": inside,
            "blind_pick_gap_pct": round(blind_gap_pct, 4),
        },
    )

    assert searched.evaluations <= BUDGET
    assert searched.evaluations / len(SMOKE_SPEC) <= 0.25
    assert gap_pct <= GAP_PCT, (
        f"halving best is {gap_pct:.2f}% short of the exhaustive optimum"
    )
    # Negative control: the gap gate must reject blind picks.  At most a
    # quarter of the grid lies inside it, and seed 0's first random pick
    # lies outside.
    assert inside <= 0.25, f"{inside:.0%} of the grid passes the gap gate"
    assert blind_gap_pct > GAP_PCT, (
        f"a blind pick is only {blind_gap_pct:.2f}% short of the optimum"
    )


def test_budget_ceiling_holds_past_1024_points():
    big = SMOKE_SPEC.with_axis("seed", (0, 1, 2, 3)).with_axis(
        "slack_threshold", (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16)
    )
    assert len(big) >= 1024
    budget = len(big) // 4
    searched = run_experiment(
        big, strategy="halving", budget=budget, rng_seed=0, engine=ENGINE
    )
    assert 0 < searched.evaluations <= budget
    assert searched.evaluations <= 0.25 * len(big)
    # The best point must be a real full-fidelity grid point.
    assert searched.best_scenario.horizon == 8.0
