"""Sweep-engine speedup benchmark (the tentpole's measured claims).

Runs a Fig. 8-style load sweep two ways and appends the measurements to
``BENCH_sweep.json``:

* **serial vs parallel** — the same grid through 1 worker and through one
  worker per core; results must be bit-identical, and on a 4+-core host
  the parallel pass must be >= 4x faster.
* **cold vs warm cache** — a second pass over an already-populated result
  cache must cost < 10% of the cold pass.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.sweep import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    SweepCache,
    SweepEngine,
    SweepGrid,
    results_identical,
)

from benchmarks._common import SEED, record_bench, scenario

pytestmark = pytest.mark.benchmark

SWEEP_APPS = ("canneal", "kmeans", "snp")
LOADS = (0.4, 0.55, 0.7, 0.85, 1.0)


def _grid() -> SweepGrid:
    return SweepGrid(
        services=("memcached",),
        app_mixes=tuple((app,) for app in SWEEP_APPS),
        policies=("pliant",),
        load_fractions=LOADS,
        seeds=(SEED,),
        base=scenario("memcached", (SWEEP_APPS[0],)),
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_sweep_engine_speedup(capsys):
    grid = _grid()
    cores = os.cpu_count() or 1

    # -- serial vs parallel (identical results, wall-clock gap) ----------
    serial, t_serial = _timed(
        lambda: SweepEngine(backend=SerialBackend()).run(grid)
    )
    parallel, t_parallel = _timed(
        lambda: SweepEngine(backend=ProcessBackend()).run(grid)
    )
    identical = all(
        results_identical(a.result, b.result) for a, b in zip(serial, parallel)
    )
    parallel_speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")

    # -- cold vs warm cache ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        engine = SweepEngine(cache=SweepCache(tmp))
        cold, t_cold = _timed(lambda: engine.run(grid))
        warm, t_warm = _timed(lambda: engine.run(grid))
    warm_hits = sum(1 for o in warm if o.from_cache)
    warm_fraction = t_warm / t_cold if t_cold > 0 else float("inf")

    record_bench(
        "sweep_engine_speedup",
        {
            "grid_size": len(grid),
            "serial_s": round(t_serial, 3),
            "parallel_s": round(t_parallel, 3),
            "parallel_workers": cores,
            "parallel_speedup": round(parallel_speedup, 2),
            "serial_parallel_identical": identical,
            "cold_s": round(t_cold, 3),
            "warm_s": round(t_warm, 3),
            "warm_fraction": round(warm_fraction, 4),
            "warm_cache_hits": warm_hits,
        },
    )

    with capsys.disabled():
        print()
        print("=== sweep engine: Fig. 8-style grid "
              f"({len(grid)} scenarios, {cores} cores) ===")
        print(f"serial {t_serial:.2f}s  parallel {t_parallel:.2f}s "
              f"({parallel_speedup:.2f}x)  identical: {identical}")
        print(f"cold {t_cold:.2f}s  warm {t_warm:.3f}s "
              f"({100 * warm_fraction:.1f}% of cold, {warm_hits} hits)")

    assert identical, "serial and parallel sweeps must be bit-identical"
    assert warm_hits == len(grid)
    assert warm_fraction < 0.10, f"warm cache cost {warm_fraction:.1%} of cold"
    if cores >= 4:
        assert parallel_speedup >= 4.0, (
            f"parallel sweep only {parallel_speedup:.1f}x on {cores} cores"
        )


def _dist_grid() -> SweepGrid:
    """64 scenarios: big enough that chunked leases amortize the broker."""
    return SweepGrid(
        services=("memcached", "mongodb"),
        app_mixes=(("canneal",), ("kmeans",)),
        policies=("pliant",),
        load_fractions=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        seeds=(SEED, SEED + 1),
        base=scenario("memcached", ("canneal",)),
    )


def test_distributed_speedup(tmp_path, capsys):
    """Distributed-vs-serial on a 64-scenario grid: identical bits, and on
    a multi-core host the distributed pass must actually be faster.

    Workers are spawned and warmed (interpreter import plus one throwaway
    sweep) *before* the timed pass — the steady-state cost of the
    broker/worker path is what the paper-scale sweeps pay, and one-off
    fleet startup is amortized across hours there, not 1.3 seconds.  The
    serial reference writes to its own fresh cache so both sides pay
    result serialization.
    """
    grid = _dist_grid()
    cores = os.cpu_count() or 1
    workers = min(cores, 4)

    serial_engine = SweepEngine(
        cache=SweepCache(tmp_path / "serial-cache"), backend=SerialBackend()
    )
    serial, t_serial = _timed(lambda: serial_engine.run(grid))

    cache = SweepCache(tmp_path / "cache")
    backend = DistributedBackend(
        tmp_path / "spool", cache=cache, lease_ttl=30.0, timeout=600.0
    )
    engine = SweepEngine(cache=cache, backend=backend)
    procs = [
        backend.spawn_local_worker(i, exit_when_idle=False)
        for i in range(workers)
    ]
    try:
        warmup = [
            scenario("memcached", ("canneal",), seed=SEED + 50 + i)
            for i in range(2 * workers)
        ]
        engine.run(warmup)
        distributed, t_distributed = _timed(lambda: engine.run(grid))
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)
    identical = all(
        results_identical(a.result, b.result)
        for a, b in zip(serial, distributed)
    )
    speedup = t_serial / t_distributed if t_distributed > 0 else float("inf")

    record_bench(
        "distributed_vs_serial",
        {
            "transport": "filesystem",
            "grid_size": len(grid),
            "serial_s": round(t_serial, 3),
            "distributed_s": round(t_distributed, 3),
            "distributed_workers": workers,
            "distributed_speedup": round(speedup, 2),
            "distributed_serial_identical": identical,
        },
    )

    with capsys.disabled():
        print()
        print(f"=== distributed backend: {len(grid)} scenarios, "
              f"{workers} warm workers ===")
        print(f"serial {t_serial:.2f}s  distributed {t_distributed:.2f}s "
              f"({speedup:.2f}x)  identical: {identical}")

    assert identical, "distributed and serial sweeps must be bit-identical"
    if cores >= 2:
        assert speedup >= 1.0, (
            f"distributed only {speedup:.2f}x serial on "
            f"{cores} cores with {workers} warm workers"
        )
