"""Time-varying load shapes and slack sensitivity — the open-axis sweep.

The legacy grid could only sweep the six axes it hard-coded; the
declarative :class:`ExperimentSpec` sweeps *any* scenario field.  This
example drives the flagship memcached+canneal colocation under three
load shapes (constant, a step surge, a diurnal swing) at two slack
thresholds, all in one spec, and shows how Pliant's approximation depth
tracks the offered load.

Usage:  python examples/time_varying_load.py [service] [app]
"""

import sys

import numpy as np

from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import SweepCache, SweepEngine
from repro.viz import format_table, format_timeline

#: (label, shape, params) — QPS params are fractions of saturation.
SHAPES = (
    ("constant", "constant", ()),
    ("step surge", "step", (("steps", ((0.0, 0.6), (150.0, 0.95))),)),
    ("diurnal", "diurnal", (("low", 0.5), ("high", 0.95), ("period", 200.0))),
)


def main() -> None:
    service = sys.argv[1] if len(sys.argv) > 1 else "memcached"
    app = sys.argv[2] if len(sys.argv) > 2 else "canneal"

    # One spec per load shape: a shape's parameters fit no other shape,
    # so a loadgen_shape x loadgen_params cross product does not declare.
    specs = [
        ExperimentSpec(
            name=f"time-varying-load/{service}/{app}/{shape}",
            description="load-shape x slack-threshold sensitivity",
            base={
                "service": service,
                "apps": app,
                "seed": 11,
                "loadgen_shape": shape,
                "loadgen_params": params,
            },
            axes={"slack_threshold": (0.05, 0.10)},
        )
        for _, shape, params in SHAPES
    ]
    scenarios = [s for spec in specs for s in spec.scenarios()]
    engine = SweepEngine(cache=SweepCache())
    print(f"== {len(scenarios)} scenarios ({service} + {app}) ==")
    results = run_experiment(scenarios, engine=engine)

    rows = []
    for outcome in results:
        scenario = outcome.scenario
        result = outcome.result
        label = next(
            l for l, shape, params in SHAPES
            if (shape, params) == (scenario.loadgen_shape, scenario.loadgen_params)
        )
        mean_level = float(np.mean(result.epoch_app_levels[app]))
        rows.append(
            [
                label,
                f"{scenario.slack_threshold:.2f}",
                f"{result.qos_ratio:.2f}",
                "yes" if result.qos_met else "NO",
                f"{mean_level:.1f}",
                result.max_cores_reclaimed(),
                f"{result.app_outcome(app).inaccuracy_pct:.2f}%",
                "cache" if outcome.from_cache else f"{outcome.duration:.2f}s",
            ]
        )
    print(
        format_table(
            [
                "load shape",
                "slack",
                "p99/QoS",
                "met",
                "mean level",
                "cores taken",
                "inaccuracy",
                "run",
            ],
            rows,
        )
    )

    diurnal = results.filter(loadgen_shape="diurnal", slack_threshold=0.10)
    if len(diurnal):
        result = diurnal[0].result
        print("\n== diurnal trace (p99/QoS and approximation level) ==")
        print(format_timeline(result.epoch_p99 / result.qos, label="p99/QoS", ceiling=3.0))
        print(
            format_timeline(
                result.epoch_app_levels[app],
                label="level  ",
                ceiling=max(result.epoch_app_levels[app].max(), 1),
            )
        )
    print(f"\n(results cached under {engine.cache.root}; rerun is free)")


if __name__ == "__main__":
    main()
