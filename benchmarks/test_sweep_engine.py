"""Sweep-engine speedup benchmark (the tentpole's measured claims).

Runs a Fig. 8-style load sweep two ways and appends the measurements to
``BENCH_sweep.json``:

* **serial vs parallel** — the same grid through 1 worker and through one
  worker per core; results must be bit-identical, and on a 4+-core host
  the parallel pass must be >= 4x faster.
* **cold vs warm cache** — a second pass over an already-populated result
  cache must cost < 10% of the cold pass, and the same pass on an
  uncached engine (the negative control) must not.  All three passes run
  in this process, so the ratio compares a cache hit with computing the
  scenario whatever the host's core count.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

import repro.sweep.cache as cache_module
from repro.experiment import ExperimentSpec
from repro.sweep import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    SweepCache,
    SweepEngine,
    results_identical,
    stable_hash,
)

from benchmarks._common import SEED, record_bench, scenario

pytestmark = pytest.mark.benchmark

SWEEP_APPS = ("canneal", "kmeans", "snp")
LOADS = (0.4, 0.55, 0.7, 0.85, 1.0)


def _grid() -> ExperimentSpec:
    """60 scenarios of 6,000 epochs each, declared: the Fig. 8-style load
    sweep over four seeds, each run for its whole 600 s horizon at the
    0.1 s monitor epoch.  ~1.5 s serial on a 2-CPU container, so the
    timer's noise does not decide the warm/cold ratio."""
    return ExperimentSpec(
        name="sweep-engine-speedup",
        base={"service": "memcached", "horizon": 600.0, "stop_when_apps_done": False},
        axes={
            "apps": SWEEP_APPS,
            "load_fraction": LOADS,
            "seed": (SEED, SEED + 1, SEED + 2, SEED + 3),
        },
    )


def _grid_keys(grid, root) -> str:
    """Digest of ``grid``'s result keys with the code and the numeric
    environment fixed (the caller monkeypatches them)."""
    return stable_hash(list(map(SweepCache(root).key, grid)), length=16)


#: :func:`_grid_keys` of the grid the warm-cache gate was sized on.
SWEEP_GRID_KEYS = "08e4e15500cdfde9"


def test_sweep_grid_is_the_one_sized(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "fixed")
    monkeypatch.setattr(cache_module, "numeric_environment", lambda: "fixed")
    grid = list(_grid().scenarios())
    assert _grid_keys(grid, tmp_path) == SWEEP_GRID_KEYS
    assert sum(round(s.horizon / s.monitor_epoch) for s in grid) == 60 * 6000


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
    # The cache passes below time result rebuilding and the garbage
    # collections it triggers; the two sweeps above would only add to
    # the heap those collections scan.
    del serial, parallel

    # -- cold vs warm cache ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        engine = SweepEngine(cache=SweepCache(tmp), backend=SerialBackend())
        _, t_cold = _timed(lambda: engine.run(grid))
        warm, t_warm = _timed(lambda: engine.run(grid))
    # Negative control: the same "warm" pass on an uncached engine must
    # miss the bound, or the bound cannot tell a cache from none.
    _, t_uncached = _timed(lambda: SweepEngine(backend=SerialBackend()).run(grid))
    warm_hits = sum(1 for o in warm if o.from_cache)
    warm_fraction = t_warm / t_cold if t_cold > 0 else float("inf")
    uncached_fraction = t_uncached / t_cold if t_cold > 0 else float("inf")

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
            "uncached_fraction": round(uncached_fraction, 4),
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
              f"({100 * warm_fraction:.1f}% of cold, {warm_hits} hits)  "
              f"uncached {t_uncached:.2f}s ({100 * uncached_fraction:.1f}% of cold)")

    assert identical, "serial and parallel sweeps must be bit-identical"
    assert warm_hits == len(grid)
    assert warm_fraction < 0.10, f"warm cache cost {warm_fraction:.1%} of cold"
    assert not uncached_fraction < 0.10, (
        f"an uncached pass cost {uncached_fraction:.1%} of cold: the warm "
        "bound cannot tell a cache from none"
    )
    if cores >= 4:
        assert parallel_speedup >= 4.0, (
            f"parallel sweep only {parallel_speedup:.1f}x on {cores} cores"
        )


def _dist_grid() -> ExperimentSpec:
    """64 scenarios of 6,000 epochs each, declared: no scenario stops
    when its apps finish, so each runs its whole 600 s horizon at the
    0.1 s monitor epoch.  ~1.5 s serial on a 2-CPU container, ~25 ms per
    scenario: enough that the broker's per-job cost (a few ms) does not
    decide the ratio."""
    return ExperimentSpec(
        name="distributed-vs-serial",
        base={"horizon": 600.0, "stop_when_apps_done": False},
        axes={
            "service": ("memcached", "mongodb"),
            "apps": (("canneal", "kmeans"), ("kmeans", "snp")),
            "load_fraction": (0.3, 0.5, 0.7, 0.9),
            "seed": (SEED, SEED + 1, SEED + 2, SEED + 3),
        },
    )


#: Digest of the distributed grid's result keys with the code and the
#: numeric environment fixed: the grid the speedup gate was sized on.
DIST_GRID_KEYS = "0fd8e726fdbc8892"


def test_distributed_grid_is_the_one_sized(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "fixed")
    monkeypatch.setattr(cache_module, "numeric_environment", lambda: "fixed")
    grid = list(_dist_grid().scenarios())
    assert _grid_keys(grid, tmp_path) == DIST_GRID_KEYS
    assert len(grid) == 64  # bench_check's distributed gate binds from 64
    assert sum(round(s.horizon / s.monitor_epoch) for s in grid) == 64 * 6000


def test_distributed_speedup(tmp_path, capsys):
    """Distributed-vs-serial on the 64-scenario grid: identical bits, and
    on a multi-core host the distributed pass must actually be faster.

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
