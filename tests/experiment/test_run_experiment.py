"""run_experiment: substrate resolution and cross-backend bit-identity.

The acceptance contract: a spec that round-trips through JSON must
reproduce bit-identical ResultSets on the serial, process, and
distributed backends — including scenarios using the new open axes
(non-constant load shapes, swept slack thresholds).
"""

import pytest

from repro.experiment import (
    ExperimentSpec,
    run_experiment,
    run_point,
)
from repro.sweep import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    SweepCache,
    SweepEngine,
    results_identical,
)

#: Two *new* axes swept end-to-end: a diurnal load shape + slack.
SPEC = ExperimentSpec(
    name="backend-parity",
    base={
        "service": "mongodb",
        "apps": "kmeans",
        "seed": 4,
        "horizon": 30.0,
        "loadgen_shape": "diurnal",
        "loadgen_params": {"low": 0.5, "high": 0.9, "period": 15.0},
    },
    axes={"slack_threshold": (0.05, 0.10), "load_fraction": (0.6, 0.9)},
)


class TestSubstrateResolution:
    def test_engine_exclusive_with_knobs(self):
        engine = SweepEngine(workers=1)
        with pytest.raises(ValueError, match="not both"):
            run_experiment(SPEC, engine=engine, workers=2)
        with pytest.raises(ValueError, match="not both"):
            run_experiment(SPEC, engine=engine, cache=SweepCache())

    def test_env_backend_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "nonsense")
        with pytest.raises(ValueError, match="REPRO_SWEEP_BACKEND"):
            run_experiment(SPEC)

    def test_accepts_raw_scenarios(self):
        results = run_experiment(SPEC.scenarios()[:1], workers=1)
        assert len(results) == 1
        assert results.spec is None

    def test_spec_attached_to_resultset(self):
        results = run_experiment(SPEC, workers=1)
        assert results.spec == SPEC

    def test_run_point_single(self):
        result = run_point(
            service="mongodb", apps="kmeans", seed=4, horizon=30.0
        )
        assert result.service_name == "mongodb"


class TestLoadAxis:
    def test_latency_grows_with_load(self):
        spec = ExperimentSpec(
            name="load-axis",
            base={"service": "mongodb", "apps": "kmeans", "seed": 4},
            axes={"load_fraction": (0.4, 0.95)},
        )
        results = run_experiment(spec, workers=1)
        low = results.lookup(load_fraction=0.4)
        high = results.lookup(load_fraction=0.95)
        assert low.qos_ratio < high.qos_ratio


class TestCaching:
    def test_warm_rerun_is_fully_cached(self, tmp_path):
        cache = SweepCache(tmp_path)
        cold = run_experiment(SPEC, cache=cache, workers=1)
        assert cold.cache_hits == 0
        warm = run_experiment(SPEC, cache=cache, workers=1)
        assert warm.cache_hits == len(SPEC)
        assert warm.identical(cold)

    def test_force_bypasses_cache_reads(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_experiment(SPEC, cache=cache, workers=1)
        forced = run_experiment(SPEC, cache=cache, workers=1, force=True)
        assert forced.cache_hits == 0


class TestBackendParity:
    def test_serial_process_distributed_bit_identical(self, tmp_path):
        spec = ExperimentSpec.from_json(SPEC.to_json())  # acceptance wording
        serial = run_experiment(spec, backend=SerialBackend())
        process = run_experiment(spec, backend=ProcessBackend(2))
        distributed = run_experiment(
            spec,
            backend=DistributedBackend(
                tmp_path / "spool",
                cache=SweepCache(tmp_path / "cache"),
                local_workers=2,
                timeout=300.0,
                poll_interval=0.05,
            ),
        )
        assert serial.identical(process)
        assert serial.identical(distributed)

    def test_parity_covers_new_axes(self):
        # The diurnal shape and swept slack must actually differ from the
        # constant-load defaults — parity over a no-op axis proves nothing.
        results = run_experiment(SPEC, backend=SerialBackend())
        flat = run_experiment(
            ExperimentSpec.from_json(SPEC.to_json())
            .with_base(loadgen_shape="constant", loadgen_params=()),
            backend=SerialBackend(),
        )
        assert not results.identical(flat)
