"""Shared machinery for the figure/table benchmarks.

All colocation runs go through :func:`repro.experiment.run_experiment`
against one process-wide :class:`SweepEngine` backed by the on-disk
:class:`SweepCache`, so figure drivers share work within a pytest
session (via the ``lru_cache`` layer) *and* across sessions (via the
content-addressed result cache) — a benchmark rerun with unchanged
configs is almost entirely disk reads.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

from repro.apps import ALL_APP_NAMES, make_app
from repro.cas import atomic_write_bytes
from repro.cluster import ladder_for
from repro.core.runtime import ColocationConfig, ColocationResult
from repro.experiment import ExperimentSpec, ResultSet, run_experiment
from repro.sweep import Scenario, SweepCache, SweepEngine, backend_from_env

SERVICES = ("nginx", "memcached", "mongodb")
SEED = 2

#: Benchmarks always run instrumented: every trajectory entry carries a
#: telemetry digest (engine wall, cache hit rate, chunk sizes) so a
#: speedup claim comes with the evidence for *why*.  Opt out with
#: REPRO_TELEMETRY=0.  Results are unaffected either way — the parity
#: tests and the telemetry-side-channel lint rule hold that line.
os.environ.setdefault("REPRO_TELEMETRY", "1")

#: Latency display units per service (value, label).
SERVICE_UNITS = {
    "nginx": (1e3, "ms"),
    "memcached": (1e6, "us"),
    "mongodb": (1e3, "ms"),
}

#: Trajectory file the sweep benchmarks append their measurements to.
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

def resolve_workers(environ=None) -> int:
    """Worker count for the bench engine: REPRO_SWEEP_WORKERS, else cores.

    The engine's own ``workers=None`` default already falls back to
    ``os.cpu_count()``, but resolving here makes ``REPRO_SWEEP_WORKERS``
    steer *every* bench substrate (it used to only set the distributed
    backend's local fleet) and pins the count the moment the module
    loads, so every figure driver in a session measures the same width.
    """
    env = os.environ if environ is None else environ
    raw = (env.get("REPRO_SWEEP_WORKERS") or "").strip()
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


#: Process-wide engine: memoized on disk; parallel across
#: :func:`resolve_workers` cores by default, or any substrate named by
#: REPRO_SWEEP_BACKEND — e.g. ``REPRO_SWEEP_BACKEND=distributed
#: REPRO_SWEEP_SPOOL=/share/spool`` re-points
#: every figure driver at a worker fleet with no code changes.
ENGINE = SweepEngine(
    workers=resolve_workers(), cache=SweepCache(), backend=backend_from_env()
)


def config(**kwargs) -> ColocationConfig:
    merged = {"seed": SEED}
    merged.update(kwargs)
    return ColocationConfig(**merged)


def scenario(service: str, apps, policy: str = "pliant", **kwargs) -> Scenario:
    """A benchmark scenario: seed 2, paper-default knobs unless overridden."""
    merged = {"seed": SEED}
    merged.update(kwargs)
    return Scenario(service=service, apps=tuple(apps), policy=policy, **merged)


def bench_spec(name: str, base: dict | None = None, axes: dict | None = None) -> ExperimentSpec:
    """A benchmark experiment spec: seed 2 unless the base overrides it."""
    merged = {"seed": SEED}
    merged.update(base or {})
    return ExperimentSpec(name=name, base=merged, axes=axes or {})


def run_spec(spec: ExperimentSpec, force: bool = False) -> ResultSet:
    """Run a spec through the shared engine (cache + env backend)."""
    return run_experiment(spec, engine=ENGINE, force=force)


def run_point(force: bool = False, **fields) -> ColocationResult:
    """One scenario through the shared engine; seed 2 unless overridden."""
    merged = {"seed": SEED}
    merged.update(fields)
    return run_experiment([Scenario(**merged)], engine=ENGINE, force=force)[0].result


@lru_cache(maxsize=256)
def run_pair(service: str, app: str) -> tuple[ColocationResult, ColocationResult]:
    """(precise, pliant) results for a single-app colocation at 77.5% load."""
    results = run_spec(
        bench_spec(
            f"pair/{service}/{app}",
            base={"service": service, "apps": (app,)},
            axes={"policy": ("precise", "pliant")},
        )
    )
    return results.lookup(policy="precise"), results.lookup(policy="pliant")


@lru_cache(maxsize=1024)
def run_pliant_mix(service: str, apps: tuple[str, ...]) -> ColocationResult:
    """Pliant run for a multi-app mix."""
    return run_point(service=service, apps=apps, policy="pliant")


def app_overhead(app_name: str) -> float:
    return make_app(app_name).metadata.dynrio_overhead


def ladder(app_name: str):
    return ladder_for(app_name, seed=0)


def telemetry_summary() -> dict | None:
    """Fleet-wide telemetry digest for a bench entry (None when off).

    Pulls the live recorder snapshot plus any worker shards, so a
    distributed bench reports chunk sizes measured on the actual fleet.
    """
    from repro import telemetry

    if not telemetry.get_recorder().enabled:
        return None
    merged = telemetry.summary()
    counters = merged.get("counters", {})
    hits = counters.get("sweep.cache.hit", 0.0)
    probes = hits + counters.get("sweep.cache.miss", 0.0)
    engine = merged.get("span_totals", {}).get("sweep.run")
    chunk = merged.get("hists", {}).get("worker.chunk_size")
    return {
        "engine_wall_s": round(engine["total_s"], 6) if engine else None,
        "cache_hit_rate": round(hits / probes, 4) if probes else None,
        "mean_chunk_size": (
            round(chunk["mean"], 3) if chunk and chunk["count"] else None
        ),
    }


def record_bench(label: str, payload: dict) -> None:
    """Append one measurement entry to the BENCH_sweep.json trajectory.

    The read-modify-write runs under an exclusive file lock so entries
    from concurrent benchmark processes are never lost; the write itself
    is atomic so a crash never tears the trajectory.
    """
    import fcntl

    lock_path = BENCH_PATH.with_suffix(".lock")
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        doc = {"benchmark": "sweep-engine", "runs": []}
        if BENCH_PATH.exists():
            try:
                loaded = json.loads(BENCH_PATH.read_text())
                if isinstance(loaded.get("runs"), list):
                    doc = loaded
            except (OSError, ValueError):
                pass  # unreadable trajectory: start fresh rather than crash
        entry = {
            "label": label,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "cpu_count": os.cpu_count(),
            **payload,
        }
        digest = telemetry_summary()
        if digest is not None and "telemetry" not in entry:
            entry["telemetry"] = digest
        doc["runs"].append(entry)
        atomic_write_bytes(
            BENCH_PATH, (json.dumps(doc, indent=1) + "\n").encode()
        )


__all__ = [
    "ALL_APP_NAMES",
    "BENCH_PATH",
    "ENGINE",
    "SEED",
    "SERVICES",
    "SERVICE_UNITS",
    "app_overhead",
    "bench_spec",
    "config",
    "ladder",
    "record_bench",
    "resolve_workers",
    "run_pair",
    "run_pliant_mix",
    "run_point",
    "run_spec",
    "scenario",
    "telemetry_summary",
]
