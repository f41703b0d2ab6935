"""Declarative experiment walkthrough.

Declares a multi-axis experiment as an :class:`ExperimentSpec` (services
x apps x loads x policies), fans it out across every core through
``run_experiment`` with the memoizing sweep engine, and queries the
returned :class:`ResultSet` for the per-scenario QoS outcome plus
cache/parallelism provenance.

Usage:  python examples/parallel_sweep.py [workers]
"""

import sys

from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import SweepCache, SweepEngine
from repro.viz import format_table


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else None

    spec = ExperimentSpec(
        name="parallel-sweep-demo",
        base={"seed": 7},
        axes={
            "service": ("memcached", "mongodb"),
            "apps": ("kmeans", "canneal"),
            "policy": ("pliant", "precise"),
            "load_fraction": (0.6, 0.9),
        },
    )
    engine = SweepEngine(workers=workers, cache=SweepCache())
    print(f"== sweeping {len(spec)} colocation scenarios ==")
    print(f"(the same spec file drives the CLI: spec.save('exp.json') then")
    print(f" python -m repro.sweep submit --spec exp.json --spool ... --wait)")
    results = run_experiment(spec, engine=engine)

    rows = [
        [
            o.scenario.service,
            "+".join(o.scenario.apps),
            o.scenario.policy,
            f"{int(100 * o.scenario.load_fraction)}%",
            f"{o.result.qos_ratio:.2f}",
            "yes" if o.result.qos_met else "NO",
            "cache" if o.from_cache else f"{o.duration:.2f}s",
        ]
        for o in results
    ]
    print(
        format_table(
            ["service", "apps", "policy", "load", "p99/QoS", "met", "run"], rows
        )
    )
    met = results.aggregate("qos_met", by="policy")
    print(
        f"QoS met (fraction of scenarios): "
        + ", ".join(f"{k}={v:.2f}" for k, v in met.items())
    )
    print(f"(results cached under {engine.cache.root}; rerun to see hits)")


if __name__ == "__main__":
    main()
