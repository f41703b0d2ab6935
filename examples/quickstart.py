"""Quickstart: colocate memcached with canneal, precise vs Pliant.

Runs the paper's flagship scenario end to end:

1. explore canneal's approximation design space (measured on the real
   kernel, cached on disk),
2. run the colocation under the static-fair-share Precise baseline and
   under Pliant: one experiment with a policy axis (results are cached
   under ``~/.cache/repro-pliant/sweeps``),
3. print the timelines and the outcome comparison,
4. execute the real canneal kernel at the ladder level Pliant used most,
   to show the actual output-quality cost.

Usage:  python examples/quickstart.py
"""

from repro.apps import make_app
from repro.cluster import ladder_for
from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import SweepCache
from repro.viz import format_table, format_timeline


def main() -> None:
    service, app_name = "memcached", "canneal"

    print(f"== exploring {app_name}'s approximation design space ==")
    ladder = ladder_for(app_name)
    for level in range(ladder.max_level + 1):
        variant = ladder.variant(level)
        tag = "precise" if level == 0 else f"approx v{level}"
        print(
            f"  level {level} ({tag:10s}): inaccuracy {variant.inaccuracy_pct:4.1f}%  "
            f"time {variant.time_factor:.2f}x  contention {variant.traffic_rate_factor:.2f}x"
        )

    print(f"\n== running {service} + {app_name} at 77.5% load ==")
    spec = ExperimentSpec(
        name="quickstart",
        base={"service": service, "apps": app_name, "seed": 1},
        axes={"policy": ("precise", "pliant")},
    )
    results = run_experiment(spec, cache=SweepCache())

    rows = []
    for run in results:
        result, outcome = run.result, run.result.app_outcome(app_name)
        rows.append(
            [
                run.scenario.policy,
                f"{result.aggregate_p99 * 1e6:.0f}us",
                f"{result.qos * 1e6:.0f}us",
                "yes" if result.qos_met else "NO",
                f"{outcome.finish_time:.1f}s" if outcome.finish_time else "-",
                f"{outcome.inaccuracy_pct:.2f}%",
                result.max_cores_reclaimed(),
            ]
        )
    print(
        format_table(
            ["runtime", "p99", "QoS", "met", "app finish", "inaccuracy", "cores"],
            rows,
        )
    )

    pliant = results.lookup(policy="pliant")
    print("\n== Pliant timeline ==")
    print(format_timeline(pliant.epoch_p99 / pliant.qos, label="p99/QoS  ", ceiling=3))
    print(
        format_timeline(
            pliant.epoch_app_levels[app_name],
            label="level    ",
            ceiling=max(ladder.max_level, 1),
        )
    )
    reclaimed = pliant.epoch_app_cores[app_name][0] - pliant.epoch_app_cores[app_name]
    print(format_timeline(reclaimed, label="reclaimed", ceiling=4))

    # Execute the real kernel at the most-used approximate level.
    levels = pliant.epoch_app_levels[app_name]
    dominant = int(max(set(levels.tolist()), key=levels.tolist().count))
    print(f"\n== executing the real {app_name} kernel at level {dominant} ==")
    app = make_app(app_name)
    precise_run = app.precise_run(seed=0)
    variant_run = app.run(ladder.variant(dominant).spec, seed=0)
    loss = app.quality_loss(precise_run.output, variant_run.output)
    print(f"precise wire length: {precise_run.output:,.0f}")
    print(f"approx  wire length: {variant_run.output:,.0f}  (+{loss:.2f}%)")
    print(
        f"work executed: {variant_run.counters.work / precise_run.counters.work:.2f}x "
        "of precise"
    )


if __name__ == "__main__":
    main()
