"""Multi-tenant colocation: one interactive service + three approximate
applications, managed round-robin (paper Section 4.4).

Shows how Pliant distributes the approximation/core burden across multiple
co-scheduled batch jobs, and compares the round-robin arbiter with the
Section 6.5 impact-aware extension.

Usage:  python examples/multi_tenant_colocation.py [service]
"""

import sys

from repro.cluster import ladder_for
from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import SweepCache
from repro.viz import format_table, format_timeline

MIX = ("canneal", "bayesian", "snp")

#: The two Pliant policies, by the arbiter each shares the burden with.
ARBITERS = {"pliant": "round-robin", "pliant-impact": "impact-aware"}


def report(service: str, result, label: str) -> None:
    print(f"\n== {service} + {'+'.join(MIX)}  ({label} arbiter) ==")
    print(format_timeline(result.epoch_p99 / result.qos, label="p99/QoS", ceiling=3))
    rows = []
    for app in MIX:
        outcome = result.app_outcome(app)
        ladder = ladder_for(app)
        rows.append(
            [
                app,
                ladder.max_level,
                f"{outcome.inaccuracy_pct:.2f}%",
                outcome.max_reclaimed,
                f"{outcome.finish_time:.1f}s" if outcome.finish_time else "-",
                outcome.switches,
            ]
        )
    print(
        format_table(
            ["app", "ladder levels", "inaccuracy", "max cores yielded", "finish", "switches"],
            rows,
        )
    )
    print(
        f"QoS met: {result.qos_met} "
        f"({result.qos_met_fraction() * 100:.0f}% of intervals), "
        f"fair share was 4 cores each"
    )


def main() -> None:
    service = sys.argv[1] if len(sys.argv) > 1 else "nginx"
    spec = ExperimentSpec(
        name="multi-tenant-colocation",
        base={"service": service, "apps": MIX, "seed": 4},
        axes={"policy": tuple(ARBITERS)},
    )
    results = run_experiment(spec, cache=SweepCache())
    by_label = {label: results.lookup(policy=p) for p, label in ARBITERS.items()}
    for label, result in by_label.items():
        report(service, result, label)

    print("\n== arbiter comparison ==")
    for label, result in by_label.items():
        worst = max(a.inaccuracy_pct for a in result.apps)
        total_cores = sum(a.max_reclaimed for a in result.apps)
        print(
            f"{label:12s}: worst inaccuracy {worst:.2f}%, "
            f"total cores yielded {total_cores}, QoS met {result.qos_met}"
        )


if __name__ == "__main__":
    main()
