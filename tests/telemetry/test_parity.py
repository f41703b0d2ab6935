"""The side-channel contract: telemetry on/off is bit-identical.

A `ResultSet` produced with `REPRO_TELEMETRY=1` must be `identical()`
to one produced with telemetry off, on every backend — the distributed
leg exercises the full path (submitter recorder, worker shard flushes,
broker census gauges) with real worker subprocesses inheriting the env.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    SweepCache,
)

#: Small but non-trivial: two open axes, four scenarios, full epoch loop.
SPEC = ExperimentSpec(
    name="telemetry-parity",
    base={"service": "memcached", "apps": "kmeans", "seed": 7, "horizon": 30.0},
    axes={"policy": ("precise", "pliant"), "load_fraction": (0.6, 0.9)},
)


@pytest.fixture()
def fresh_recorder(monkeypatch, tmp_path):
    """Re-read the env per leg; shards land in the test's tmp dir."""
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "shards"))

    def activate(enabled: bool):
        monkeypatch.setenv("REPRO_TELEMETRY", "1" if enabled else "0")
        telemetry.reset_recorder()
        return telemetry.get_recorder()

    yield activate
    telemetry.reset_recorder()


def _backend(kind: str, tmp_path, leg: str):
    if kind == "serial":
        return SerialBackend()
    if kind == "process":
        return ProcessBackend(2)
    return DistributedBackend(
        tmp_path / f"spool-{leg}",
        cache=SweepCache(tmp_path / f"cache-{leg}"),
        local_workers=2,
        timeout=300.0,
        poll_interval=0.05,
    )


@pytest.mark.parametrize("kind", ["serial", "process", "distributed"])
def test_results_identical_with_telemetry_on_and_off(
    kind, tmp_path, fresh_recorder
):
    recorder = fresh_recorder(False)
    assert not recorder.enabled
    baseline = run_experiment(SPEC, backend=_backend(kind, tmp_path, "off"))

    recorder = fresh_recorder(True)
    assert recorder.enabled
    instrumented = run_experiment(SPEC, backend=_backend(kind, tmp_path, "on"))

    assert baseline.identical(instrumented)
    if kind != "distributed":
        # The recorder actually saw the run — parity is not vacuous.
        assert recorder.snapshot()["span_totals"]["sweep.run"]["count"] == 1


def test_instrumented_run_records_scenarios(tmp_path, fresh_recorder):
    recorder = fresh_recorder(True)
    # Cold per-test cache: every scenario is a miss and actually executes.
    results = run_experiment(SPEC, cache=SweepCache(tmp_path / "cache"), workers=1)
    snap = recorder.snapshot()
    grid = len(SPEC.scenarios())
    assert snap["counters"]["sweep.cache.miss"] == grid
    assert snap["span_totals"]["scenario.run"]["count"] == grid
    assert snap["hists"]["sweep.scenario_s"]["count"] == grid
    assert snap["span_totals"]["experiment.run"]["count"] == 1
    # One monitor and one policy phase per closed decision interval.
    closed = sum(len(result.intervals) for result in results.results)
    assert closed > 0
    assert snap["hists"]["runtime.monitor_phase_s"]["count"] == closed
    assert snap["hists"]["runtime.policy_phase_s"]["count"] == closed
