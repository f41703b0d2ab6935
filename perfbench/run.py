"""Benchmark of the Pliant reproduction, one workload per invocation.

    python3 perfbench/run.py --workload fig5-constant --seed 1 --seconds 10 --trace 0

Workloads: ``fig5-constant``, ``diurnal-multiapp``, ``warm-replay`` and
``explore-cold`` (see ``workloads.py`` for what each runs and the cache
state it starts from).  With ``--trace 0`` the run measures end-to-end
metrics with the program's telemetry off and no wrappers; with
``--trace 1`` it wraps the public layer functions for one set-up and one
pass and reports per-layer metrics, plus the tracing overhead against
untraced passes of the same run.  Every result is checked against the
digests pinned in ``reference.json``.

End-to-end times are in seconds at reference speed: a fixed reference
loop runs between pieces of timed work and each piece is scaled by how
long the loop took beside it (``calibrate.py``), which cancels the swings
in speed of a shared host.  Per-layer times are wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The first run in a checkout explores all 24 apps' ladders once into
``.perfbench_state/`` (about 40 s); later runs copy them into private
caches.  Run from the root of the repository; nothing outside it is read
or written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_ms_p50": "ms",
    "scenario_ms_p90": "ms",
    "epoch_us_p50": "us",
    "explore_s": "s",
    "peak_rss_mb": "MB",
    "qos_met_frac": "ratio",
    "inaccuracy_pct_mean": "%",
}


def per_layer_units() -> dict[str, str]:
    from workloads import PANEL

    units = {
        "import.repro_s": "s",
        "experiment.expand_ms": "ms",
        "search.ladder_load_ms": "ms",
        "sweep.code_fingerprint_ms": "ms",
        "cluster.build_engine_us_p50": "us",
        "core.run_ms_p50": "ms",
        "core.run.self_us_per_epoch": "us",
        "core.epochs": "count",
        "core.policy.on_interval_us_p50": "us",
        "core.policy.on_interval.calls": "count",
        "core.monitor.close_interval_us_p50": "us",
        "core.monitor.record.calls": "count",
        "core.actuator.set_level.calls": "count",
        "core.actuator.core_moves.calls": "count",
        "server.pressure_on_us_p50": "us",
        "server.pressure_on.calls_per_epoch": "calls/epoch",
        "server.pressure_on.self_share": "ratio",
        "server.profile_scaled.calls_per_epoch": "calls/epoch",
        "services.profile.calls_per_epoch": "calls/epoch",
        "services.sample_p99_us_p50": "us",
        "services.loadgen.qps_at_us_p50": "us",
        "sweep.cache.key_us_p50": "us",
        "sweep.cache.get_us_p50": "us",
        "sweep.cache.put_us_p50": "us",
        "sweep.cache.hit_rate": "ratio",
        "sweep.result_kb_p50": "kB",
        "sweep.engine_overhead_ms": "ms",
        "experiment.resultset_ms": "ms",
    }
    units.update({f"search.explore_s.{app}": "s" for app in PANEL})
    units.update({f"apps.precise_run_ms.{app}": "ms" for app in PANEL})
    units.update(
        {
            "apps.measure_ms_p50": "ms",
            "apps.measure.calls": "count",
            "search.ladder_yield": "ratio",
            "trace.overhead_pct": "%",
            "failed_frac": "ratio",
        }
    )
    return units


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_ladder_store() -> Path:
    """All 24 apps' explored ladders for this source tree, built once."""
    store = STATE / f"ladders-{source_fingerprint()}"
    if store.is_dir():
        return store
    from repro.apps import ALL_APP_NAMES, make_app
    from repro.search.variants import DesignSpaceExplorer

    print(f"building the ladder store {store.name} (once per checkout)", file=sys.stderr)
    building = STATE / f"{store.name}.building-{os.getpid()}"
    try:
        for app in ALL_APP_NAMES:
            DesignSpaceExplorer(make_app(app), seed=0, cache_dir=building).explore()
        building.rename(store)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return store


def typical(records: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median time over the passes of the run; the
    statistics are then taken across scenarios and apps."""
    return {key: statistics.median(record[key] for record in records) for key in records[0]}


def end_to_end_metrics(bench) -> dict[str, float]:
    passes = bench.passes
    scenario_s = typical([p.scenario_s for p in passes])
    times = list(scenario_s.values())
    last = passes[-1]
    return {
        "setup_s": statistics.median(s.total_s for s in bench.setups),
        # Typical time per scenario plus the typical engine overhead around them.
        "scenarios_per_s": len(times)
        / (sum(times) + statistics.median(p.overhead_s for p in passes)),
        "scenario_ms_p50": 1e3 * statistics.median(times),
        "scenario_ms_p90": 1e3 * statistics.quantiles(times, n=10)[-1],
        "epoch_us_p50": statistics.median(typical([p.epoch_us for p in passes]).values()),
        "explore_s": sum(typical([p.explore_s for p in passes]).values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "qos_met_frac": last.qos_met_frac,
        "inaccuracy_pct_mean": last.inaccuracy_pct_mean,
    }


def per_layer_metrics(bench, traced, overhead_pct) -> dict[str, float]:
    """Per-layer numbers from the traced pass.

    A simulator layer the pass never calls is reported from the traced
    set-up (``warm-replay`` runs the simulator only to fill its cache).
    The exploration layers come from the pass on ``explore-cold`` and
    from the traced cold exploration of the panel elsewhere.
    """
    from tracer import LayerStats
    from workloads import PANEL

    tracers = bench.tracers

    def layer(name, tracer):
        return tracer.layers.get(name) or LayerStats()

    def source(name):
        return tracers["pass"] if layer(name, tracers["pass"]).calls else tracers["setup"]

    core = source("core.run")
    epochs = core.counts["core.epochs"]

    def per_epoch(name):
        return layer(name, core).calls / epochs if epochs else 0.0

    run = layer("core.run", core)
    explore = tracers.get("explore", tracers["pass"])
    measured = layer("apps.measure", explore)
    setup = bench.setups[-1]
    metrics = {
        "import.repro_s": setup.import_s,
        "experiment.expand_ms": 1e3 * setup.expand_s,
        "search.ladder_load_ms": 1e3 * traced.ladder_load_s,
        "sweep.code_fingerprint_ms": 1e3 * setup.fingerprint_s,
        "cluster.build_engine_us_p50": 1e6 * layer("cluster.build_engine", core).p50_s(),
        "core.run_ms_p50": 1e3 * run.p50_s(),
        "core.run.self_us_per_epoch": 1e6 * run.self_s / epochs if epochs else 0.0,
        "core.epochs": epochs,
        "core.policy.on_interval_us_p50": 1e6 * layer("core.policy.on_interval", core).p50_s(),
        "core.policy.on_interval.calls": layer("core.policy.on_interval", core).calls,
        "core.monitor.close_interval_us_p50": 1e6
        * layer("core.monitor.close_interval", core).p50_s(),
        "core.monitor.record.calls": layer("core.monitor.record", core).calls,
        "core.actuator.set_level.calls": layer("core.actuator.set_level", core).calls,
        "core.actuator.core_moves.calls": layer("core.actuator.core_moves", core).calls,
        "server.pressure_on_us_p50": 1e6 * layer("server.pressure_on", core).p50_s(),
        "server.pressure_on.calls_per_epoch": per_epoch("server.pressure_on"),
        "server.pressure_on.self_share": (
            layer("server.pressure_on", core).self_s / run.total_s if run.calls else 0.0
        ),
        "server.profile_scaled.calls_per_epoch": per_epoch("server.profile_scaled"),
        "services.profile.calls_per_epoch": per_epoch("services.profile"),
        "services.sample_p99_us_p50": 1e6 * layer("services.sample_p99", core).p50_s(),
        "services.loadgen.qps_at_us_p50": 1e6 * layer("services.loadgen.qps_at", core).p50_s(),
        "sweep.cache.key_us_p50": 1e6 * layer("sweep.cache.key", tracers["pass"]).p50_s(),
        "sweep.cache.get_us_p50": 1e6 * layer("sweep.cache.get", tracers["pass"]).p50_s(),
        "sweep.cache.put_us_p50": 1e6 * layer("sweep.cache.put", source("sweep.cache.put")).p50_s(),
        "sweep.cache.hit_rate": traced.hits / traced.lookups,
        "sweep.result_kb_p50": statistics.median(traced.result_kb),
        "sweep.engine_overhead_ms": 1e3
        * (layer("sweep.engine.run", tracers["pass"]).total_s - traced.compute_s),
        "experiment.resultset_ms": 1e3 * traced.resultset_s,
    }
    for app in PANEL:
        metrics[f"search.explore_s.{app}"] = explore.counts[f"search.explore_s.{app}"]
        metrics[f"apps.precise_run_ms.{app}"] = 1e3 * explore.counts[f"apps.precise_run.{app}"]
    metrics.update(
        {
            "apps.measure_ms_p50": 1e3 * measured.p50_s(),
            "apps.measure.calls": measured.calls,
            "search.ladder_yield": explore.counts["search.selected"]
            / explore.counts["search.variants"],
            "trace.overhead_pct": overhead_pct,
            "failed_frac": bench.failed / max(bench.attempted, 1),
        }
    )
    return metrics


def print_layers(tracers) -> None:
    print(f"{'layer':40s} {'calls':>9s} {'total_ms':>10s} {'self_ms':>10s}")
    for phase, tracer in tracers.items():
        for name, stats in sorted(tracer.layers.items(), key=lambda kv: -kv[1].self_s):
            if stats.calls:
                print(
                    f"{phase + ':' + name:40s} {stats.calls:9d} "
                    f"{1e3 * stats.total_s:10.2f} {1e3 * stats.self_s:10.2f}"
                )


def measure(bench, seconds: float, trace: bool) -> dict[str, float]:
    """Set up and run passes for about ``seconds``; the run's metrics."""
    from time import perf_counter

    from calibrate import SpeedTrack
    from tracer import Tracer
    from workloads import SETUPS

    # End-to-end times are calibrated to reference speed; traced runs keep
    # wall time, so that no reference loop lands inside a traced layer.
    bench.track = SpeedTrack(enabled=not trace)

    def untraced_passes(start: float, minimum: int) -> None:
        # Stop before a pass that would overrun, once ``minimum`` ran.
        while True:
            last = bench.run_pass()
            minimum -= 1
            if minimum <= 0 and perf_counter() - start + last.wall_s > seconds:
                return

    if not trace:
        for _ in range(SETUPS):
            bench.setup()
        untraced_passes(perf_counter(), minimum=bench.workload.min_passes)
        return end_to_end_metrics(bench)

    bench.tracers = {"setup": Tracer(), "pass": Tracer()}
    bench.setup(bench.tracers["setup"])
    if bench.workload.mode != "explore":
        # The pass loads warm ladders only; the exploration layers are
        # measured on a cold exploration of the panel instead.
        bench.tracers["explore"] = Tracer()
        bench.explore_panel(bench.tracers["explore"])
    start = perf_counter()
    bench.run_pass()
    traced = bench.run_pass(bench.tracers["pass"])
    if perf_counter() - start + traced.wall_s <= seconds:
        untraced_passes(start, minimum=1)
    baseline = statistics.median(p.total_s for p in bench.passes)
    overhead_pct = 100 * (traced.total_s / baseline - 1)
    print_layers(bench.tracers)
    return per_layer_metrics(bench, traced, overhead_pct)


def isolate(work_dir: Path) -> None:
    """Turn the program's telemetry off and keep every cache it could
    touch private to ``work_dir`` (never ``~/.cache``)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_TELEMETRY"] = "0"
    os.environ["REPRO_SWEEP_CACHE"] = str(work_dir / "sweeps-default")
    os.environ["REPRO_EXPLORATION_CACHE"] = str(work_dir / "exploration-default")
    sys.path.insert(0, str(SRC))


def make_bench(workload: str, seed: int, work_dir: Path):
    import workloads

    return workloads.Bench(
        workloads.WORKLOADS[workload],
        seed=seed,
        work_dir=work_dir,
        ladder_store=ensure_ladder_store(),
        reference=json.loads(REFERENCE.read_text()),
        src_dir=SRC,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"no pinned digests: {REFERENCE} is missing", file=sys.stderr)
        return 2

    work_dir = STATE / f"run-{os.getpid()}"
    isolate(work_dir)
    try:
        import numpy

        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r} "
                f"(known: {', '.join(workloads.WORKLOADS)})"
            )
        bench = make_bench(args.workload, args.seed, work_dir)
        try:
            metrics = measure(bench, args.seconds, bool(args.trace))
        except Exception as exc:  # a failing operation is a result, not a crash
            import traceback

            traceback.print_exc()
            bench.failed += 1
            bench.attempted += 1
            bench.problems.append(f"aborted: {exc!r}")
            metrics = {}
        finally:
            bench.close()
        units = END_TO_END_UNITS if not args.trace else per_layer_units()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} passes={len(bench.passes)} setups={len(bench.setups)}"
    )
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    correct = bench.failed == 0 and set(metrics) == set(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(bench.attempted, 1),
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
