"""End-to-end distributed sweep smoke (the subsystem's acceptance bar).

One test, the whole story (``make sweep-smoke``): a >= 32-scenario grid
runs serially for ground truth, then cold through the distributed
backend with two local workers — one of which is SIGKILLed mid-sweep, so
completion *requires* lease expiry and reassignment.  The surviving
worker drains the spool, results must match the serial pass bit-for-bit,
and a warm rerun must be served >= 95 % from the shared cache.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.experiment import ExperimentSpec
from repro.sweep import (
    DistributedBackend,
    SerialBackend,
    SweepCache,
    SweepEngine,
    results_identical,
)

from repro import telemetry

from benchmarks._common import SEED, record_bench

pytestmark = pytest.mark.benchmark

#: 2 services x 2 mixes x 2 policies x 2 loads x 2 seeds = 32 scenarios.
SMOKE_GRID = ExperimentSpec(
    name="distributed-smoke",
    base={"horizon": 120.0},
    axes={
        "service": ("memcached", "mongodb"),
        "apps": ("kmeans", ("canneal", "snp")),
        "policy": ("pliant", "precise"),
        "load_fraction": (0.6, 0.85),
        "seed": (SEED, SEED + 1),
    },
)

LEASE_TTL = 3.0


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_distributed_smoke_with_worker_kill(tmp_path, capsys):
    grid = SMOKE_GRID
    assert len(grid) >= 32

    serial, t_serial = _timed(
        lambda: SweepEngine(backend=SerialBackend()).run(grid)
    )

    try:
        # -- cold distributed pass, killing one worker mid-sweep ----------
        cache = SweepCache(tmp_path / "cache")
        backend = DistributedBackend(
            tmp_path / "spool",
            cache=cache,
            lease_ttl=LEASE_TTL,
            timeout=900.0,
            local_workers=1,  # the survivor; the victim is spawned by hand
        )
        spool = backend.spool
        spool.submit_many(grid.scenarios(), cache)

        victim = backend.spawn_local_worker(index=99)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = spool.status()
            # Kill while the victim plausibly holds a lease and work
            # remains, so its chunk must be reassigned via lease expiry.
            if status.running >= 1 and status.done < status.total - 2:
                break
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        killed_at_status = spool.status()

        engine = SweepEngine(cache=cache, backend=backend)
        distributed, t_distributed = _timed(lambda: engine.run(grid))
        identical = all(
            results_identical(a.result, b.result)
            for a, b in zip(serial, distributed)
        )

        # -- warm rerun must be nearly free -------------------------------
        warm, t_warm = _timed(lambda: engine.run(grid))
        final_status = spool.status()
    finally:
        telemetry.flush()  # the submitter's own shard joins the timeline
    warm_hits = sum(1 for outcome in warm if outcome.from_cache)
    warm_hit_fraction = warm_hits / len(grid)

    speedup = t_serial / t_distributed if t_distributed > 0 else float("inf")
    record_bench(
        "distributed_smoke",
        {
            "transport": "filesystem",
            "grid_size": len(grid),
            "serial_s": round(t_serial, 3),
            "distributed_s": round(t_distributed, 3),
            "distributed_speedup": round(speedup, 2),
            "worker_killed_mid_sweep": True,
            "jobs_done_at_kill": killed_at_status.done,
            "distributed_serial_identical": identical,
            "warm_hit_fraction": round(warm_hit_fraction, 4),
            "warm_s": round(t_warm, 3),
        },
    )

    with capsys.disabled():
        print()
        print(f"=== distributed smoke: {len(grid)} "
              f"scenarios, 2 workers, 1 killed mid-sweep ===")
        print(f"at kill: {killed_at_status.done} done, "
              f"{killed_at_status.running} running, "
              f"{killed_at_status.pending} pending")
        print(f"serial {t_serial:.2f}s  distributed {t_distributed:.2f}s "
              f"({speedup:.2f}x)  identical: {identical}")
        print(f"warm rerun: {100 * warm_hit_fraction:.1f}% from cache "
              f"in {t_warm:.2f}s")

    assert identical, "distributed results must match serial bit-for-bit"
    assert final_status.done == final_status.total
    assert warm_hit_fraction >= 0.95, (
        f"warm rerun only {warm_hit_fraction:.1%} from cache"
    )

    # -- observability: the merged trace covers the whole fleet -----------
    if telemetry.get_recorder().enabled:
        trace = telemetry.chrome_trace(telemetry.default_dir())
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        assert len(pids) >= 3, (
            "merged Chrome trace should show submitter + both workers, "
            f"got {len(pids)} process track(s)"
        )
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert "scenario.run" in span_names, (
            "per-scenario spans missing from the merged timeline"
        )
