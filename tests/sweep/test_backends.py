"""Execution backends: protocol, spool/lease fault tolerance, parity."""

import json
import threading
import time

import pytest

from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import (
    DistributedBackend,
    JobSpool,
    ProcessBackend,
    Scenario,
    SerialBackend,
    SweepCache,
    SweepEngine,
    backend_from_env,
    results_identical,
    run_scenario,
    run_worker,
)

#: Short-horizon scenario template: fast but long enough for decisions.
BASE = Scenario(service="mongodb", apps=("kmeans",), horizon=60.0, seed=4)


def _submit(spool: JobSpool, scenario: Scenario) -> str:
    """Spool ``scenario`` under its result key, as a submitter does."""
    return spool.submit(SweepCache().key(scenario), scenario)


def _grid(loads=(0.5, 0.8), seeds=(4, 5)) -> ExperimentSpec:
    return ExperimentSpec(
        base={"service": "mongodb", "apps": "kmeans", "horizon": 60.0},
        axes={"load_fraction": loads, "seed": seeds},
    )


class TestScenarioPayloadRoundTrip:
    def test_identity(self):
        scenario = Scenario(
            service="nginx",
            apps=("kmeans", "canneal"),
            policy="pliant",
            policy_kwargs=(("max_backoff", 16),),
            slack_threshold=0.2,
            load_fraction=0.6,
            seed=9,
        )
        assert Scenario.from_payload(scenario.to_payload()) == scenario

    def test_payload_is_json_safe(self):
        payload = BASE.to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_preserves_cache_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        clone = Scenario.from_payload(BASE.to_payload())
        assert cache.key(clone) == cache.key(BASE)


class TestLocalBackends:
    def test_serial_matches_process(self):
        grid = _grid()
        serial = SerialBackend().execute(grid.scenarios())
        parallel = ProcessBackend(2).execute(grid.scenarios())
        assert len(serial) == len(parallel) == len(grid)
        for (a, _), (b, _) in zip(serial, parallel):
            assert results_identical(a, b)

    def test_durations_recorded(self):
        [(result, duration)] = SerialBackend().execute([BASE])
        assert duration > 0.0
        assert result.policy_name == "pliant"

    def test_process_backend_inline_for_single_scenario(self):
        # No pool spin-up for a 1-scenario batch; result still correct.
        [(result, _)] = ProcessBackend(8).execute([BASE])
        assert results_identical(result, run_scenario(BASE))

    def test_engine_resolves_serial_then_process(self):
        assert isinstance(SweepEngine(workers=1).resolve_backend(4), SerialBackend)
        assert isinstance(SweepEngine(workers=4).resolve_backend(4), ProcessBackend)
        assert isinstance(SweepEngine(workers=4).resolve_backend(1), SerialBackend)

    def test_engine_explicit_backend_wins(self):
        backend = SerialBackend()
        engine = SweepEngine(workers=8, backend=backend)
        assert engine.resolve_backend(100) is backend
        assert engine.backend is backend


class TestJobSpool:
    def test_submit_is_idempotent_and_content_addressed(self, tmp_path):
        spool = JobSpool(tmp_path)
        first = _submit(spool, BASE)
        second = _submit(spool, BASE)
        assert first == second == SweepCache().key(BASE)
        assert spool.job_ids() == [first]
        assert spool.load_scenario(first) == BASE

    def test_claim_race_claims_exactly_once(self, tmp_path):
        spool = JobSpool(tmp_path)
        job_id = _submit(spool, BASE)
        wins = []
        barrier = threading.Barrier(8)

        def contend(worker):
            barrier.wait()
            if spool.try_claim(job_id, f"worker-{worker}"):
                wins.append(worker)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_live_lease_blocks_second_claim(self, tmp_path):
        spool = JobSpool(tmp_path, lease_ttl=30.0)
        job_id = _submit(spool, BASE)
        assert spool.try_claim(job_id, "alice")
        assert not spool.try_claim(job_id, "bob")

    def test_expired_lease_is_stolen(self, tmp_path):
        spool = JobSpool(tmp_path, lease_ttl=0.2)
        job_id = _submit(spool, BASE)
        assert spool.try_claim(job_id, "dead-worker")
        # Expiry is monotonic dwell at a frozen mtime, observed by the
        # would-be stealer itself: the first contact only starts the
        # clock, and the steal lands once no heartbeat arrives for a TTL.
        assert not spool.try_claim(job_id, "survivor")
        deadline = time.monotonic() + 5.0
        while not spool.try_claim(job_id, "survivor"):
            assert time.monotonic() < deadline, "expired lease never stolen"
            time.sleep(0.05)
        assert "survivor" in spool.lease_path(job_id).read_text()

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        spool = JobSpool(tmp_path, lease_ttl=0.2)
        job_id = _submit(spool, BASE)
        assert spool.try_claim(job_id, "owner")
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            spool.heartbeat(job_id)
            assert not spool.try_claim(job_id, "thief")
            time.sleep(0.05)

    def test_released_lease_reclaimable_despite_race(self, tmp_path):
        """Regression: a lease released between the failed O_EXCL open and
        the age stat must not make try_claim report the job as taken."""

        class RacingSpool(JobSpool):
            def lease_age(self, job_id):
                # The owner releases exactly in the window between our
                # failed O_EXCL create and this stat.
                JobSpool.release(self, job_id)
                return None

        spool = RacingSpool(tmp_path, lease_ttl=30.0)
        job_id = _submit(spool, BASE)
        assert spool.try_claim(job_id, "owner")
        assert spool.try_claim(job_id, "contender")
        assert "contender" in spool.lease_path(job_id).read_text()

    def test_lease_age_immune_to_clock_skew(self, tmp_path):
        """Heartbeats stamped by a host whose clock is off by ±5s must not
        spuriously expire (or immortalize) a lease: age is local monotonic
        dwell since the last observed mtime *change*, never wall-clock
        minus a foreign timestamp."""
        import os

        spool = JobSpool(tmp_path, lease_ttl=0.3)
        job_id = _submit(spool, BASE)
        assert spool.try_claim(job_id, "remote-worker")
        lease = spool.lease_path(job_id)

        # Live worker, skewed clock: every heartbeat lands with a ±5s-off
        # mtime, but each *changes* the mtime, so the observed age resets.
        for step, skew in enumerate((-5.0, 5.0, -5.0, 5.0)):
            stamp = time.time() + skew + step * 1e-3
            os.utime(lease, (stamp, stamp))
            age = spool.lease_age(job_id)
            assert age is not None and age <= spool.lease_ttl
            assert not spool.try_claim(job_id, "thief")
            time.sleep(0.05)

        # Dead worker, skewed clock: the mtime freezes (at a value wall
        # clocks would misjudge in either direction) and monotonic dwell
        # alone must expire it.
        deadline = time.monotonic() + 5.0
        while spool.lease_age(job_id) <= spool.lease_ttl:
            assert time.monotonic() < deadline, "frozen lease never expired"
            time.sleep(0.05)
        assert spool.try_claim(job_id, "survivor")

    def test_claim_chunk_leases_many_in_one_scan(self, tmp_path):
        from dataclasses import replace

        spool = JobSpool(tmp_path)
        ids = [_submit(spool, replace(BASE, seed=s)) for s in range(6)]
        chunk = spool.claim_chunk("bulk-worker", max_jobs=4)
        assert len(chunk) == 4
        rest = spool.claim_chunk("other-worker", max_jobs=10)
        assert len(rest) == 2
        assert {j.job_id for j in chunk} | {j.job_id for j in rest} == set(ids)
        assert spool.claim_chunk("late-worker", max_jobs=10) == []

    def test_contract_round_trip(self, tmp_path):
        """heartbeat_many, done_info_many and reset_job over a full chunk."""
        from dataclasses import replace

        spool = JobSpool(tmp_path)
        ids = spool.submit_many(
            [replace(BASE, seed=s) for s in range(5)], SweepCache()
        )
        chunk = spool.claim_chunk("w1", max_jobs=5)
        assert {job.job_id for job in chunk} == set(ids)
        spool.heartbeat_many([job.job_id for job in chunk])
        for job in chunk:
            spool.mark_done(job.job_id, duration=0.01, worker_id="w")
        assert spool.all_done()
        infos = spool.done_info_many(ids)
        assert set(infos) == set(ids)
        assert all(
            info == {"duration": 0.01, "worker": "w"} for info in infos.values()
        )

        spool.reset_job(ids[0])
        assert not spool.all_done()
        assert spool.status().pending == 1

    def test_url_spool_fails_loudly(self, tmp_path, monkeypatch):
        """A ``scheme://`` spool raises instead of silently creating a
        ``tcp:/h:7077`` directory, on every way in: the Python API, the
        backend, and REPRO_SWEEP_SPOOL."""
        monkeypatch.chdir(tmp_path)
        env = {
            "REPRO_SWEEP_BACKEND": "distributed",
            "REPRO_SWEEP_SPOOL": "tcp://h:7077",
        }
        for build in (
            lambda: JobSpool("tcp://h:7077"),
            lambda: DistributedBackend("tcp://h:7077"),
            lambda: backend_from_env(env),
        ):
            with pytest.raises(ValueError, match="TCP spools were removed"):
                build()
        assert list(tmp_path.iterdir()) == []

    def test_done_job_not_claimable(self, tmp_path):
        spool = JobSpool(tmp_path)
        job_id = _submit(spool, BASE)
        spool.mark_done(job_id, duration=0.1, worker_id="w")
        assert not spool.try_claim(job_id, "late-worker")
        assert spool.claim_chunk("late-worker", max_jobs=1) == []

    def test_status_census(self, tmp_path):
        from dataclasses import replace

        spool = JobSpool(tmp_path, lease_ttl=0.2)
        ids = [_submit(spool, replace(BASE, seed=s)) for s in range(4)]
        spool.mark_done(ids[0], duration=0.1, worker_id="w")
        spool.try_claim(ids[1], "alive")
        spool.try_claim(ids[2], "dead")
        first = spool.status()  # starts the observation clocks
        assert (first.total, first.done, first.running) == (4, 1, 2)
        # "alive" keeps heartbeating; "dead" goes silent past the TTL.
        deadline = time.monotonic() + 0.35
        while time.monotonic() < deadline:
            spool.heartbeat(ids[1])
            time.sleep(0.05)
        status = spool.status()
        assert (status.total, status.done) == (4, 1)
        assert (status.running, status.expired, status.pending) == (1, 1, 1)


class TestWorkerFaultTolerance:
    def test_crash_reassignment_produces_identical_result(self, tmp_path):
        """Dead worker's lease expires; a live worker re-runs the job and
        lands the exact same bits (the determinism contract)."""
        spool = JobSpool(tmp_path / "spool", lease_ttl=0.3)
        cache = SweepCache(tmp_path / "cache")
        job_id = _submit(spool, BASE)
        # A worker claims the job, then "crashes": heartbeats stop, so the
        # survivor's poll loop watches the lease sit frozen for a TTL of
        # monotonic time and then steals it.
        assert spool.try_claim(job_id, "crashed-worker")

        executed = run_worker(
            spool, cache=cache, exit_when_idle=True, worker_id="survivor",
            poll_interval=0.05,
        )
        assert executed == 1
        info = spool.done_info(job_id)
        assert info["worker"] == "survivor"
        assert results_identical(cache.get(job_id), run_scenario(BASE))

    def test_worker_drains_spool_and_publishes_to_cache(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        cache = SweepCache(tmp_path / "cache")
        scenarios = _grid().scenarios()
        spool.submit_many(scenarios, cache)
        executed = run_worker(spool, cache=cache, exit_when_idle=True)
        assert executed == len(scenarios)
        assert spool.all_done()
        assert cache.entry_count() == len(scenarios)

    def test_max_jobs_bounds_a_worker(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        cache = SweepCache(tmp_path / "cache")
        spool.submit_many(_grid().scenarios(), cache)
        assert run_worker(spool, cache=cache, max_jobs=1) == 1
        assert spool.status().done == 1

    def test_poison_job_fails_without_killing_worker(self, tmp_path):
        """A scenario that raises is marked failed; the worker keeps
        serving and the rest of the spool still drains."""
        from dataclasses import replace

        spool = JobSpool(tmp_path / "spool")
        cache = SweepCache(tmp_path / "cache")
        poison = replace(BASE, policy="no-such-policy")
        poison_id = _submit(spool, poison)
        good_id = _submit(spool, BASE)
        executed = run_worker(
            spool, cache=cache, exit_when_idle=True, worker_id="hardy"
        )
        assert executed == 2
        status = spool.status()
        assert (status.done, status.failed) == (2, 1)
        assert "no-such-policy" in spool.done_info(poison_id)["error"]
        assert results_identical(cache.get(good_id), run_scenario(BASE))

    def test_submitter_surfaces_failed_job(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        job_id = _submit(spool, BASE)
        spool.mark_failed(job_id, error="ValueError: boom", worker_id="w9")
        backend = DistributedBackend(
            tmp_path / "spool", cache=SweepCache(tmp_path / "cache"),
            timeout=10.0,
        )
        with pytest.raises(RuntimeError, match="boom"):
            backend.execute([BASE])

    def test_malformed_job_file_is_quarantined(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        job_id = _submit(spool, BASE)
        spool.job_path(job_id).write_text("{not json")
        assert spool.claim_chunk("worker", max_jobs=1) == []
        assert spool.job_ids() == []          # out of the queue for good
        assert spool.all_done()               # --exit-when-idle workers exit
        assert spool.job_path(job_id).with_suffix(".json.bad").exists()

    def test_stale_done_marker_recovers(self, tmp_path):
        """A done marker whose cache entry was pruned is reset and re-run."""
        spool_root = tmp_path / "spool"
        cache = SweepCache(tmp_path / "cache")
        spool = JobSpool(spool_root)
        job_id = _submit(spool, BASE)
        spool.mark_done(job_id, duration=0.0, worker_id="ghost")
        backend = DistributedBackend(
            spool_root, cache=cache, timeout=120.0, local_workers=1
        )
        [(result, _)] = backend.execute([BASE])
        assert results_identical(result, run_scenario(BASE))
        assert spool.done_info(job_id)["worker"] != "ghost"


class TestOneContentAddress:
    """A job id is the result key, so neither side of the spool can
    answer for code it is not running."""

    def test_a_code_change_is_a_new_job(self, tmp_path, monkeypatch):
        """An old done marker never serves the old code's result."""
        spool = JobSpool(tmp_path / "spool")
        cache = SweepCache(tmp_path / "cache")
        spool.submit_many([BASE], cache)
        run_worker(spool, cache=cache, exit_when_idle=True)
        monkeypatch.setattr(
            "repro.sweep.cache.code_fingerprint", lambda: "edited code"
        )
        backend = DistributedBackend(
            spool.root, cache=cache, timeout=0.5, local_workers=0
        )
        with pytest.raises(TimeoutError):
            SweepEngine(cache=cache, backend=backend).run([BASE])

    def test_worker_refuses_a_job_keyed_by_other_code(
        self, tmp_path, monkeypatch
    ):
        """The job is marked failed, not run, and nothing is published
        under a key this worker did not compute."""
        spool = JobSpool(tmp_path / "spool")
        cache = SweepCache(tmp_path / "cache")
        own_key = cache.key(BASE)
        monkeypatch.setattr(
            "repro.sweep.cache.code_fingerprint", lambda: "submitter code"
        )
        foreign_key = cache.key(BASE)
        spool.submit(foreign_key, BASE)
        monkeypatch.undo()
        assert run_worker(spool, cache=cache, exit_when_idle=True) == 1
        error = spool.done_info(foreign_key)["error"]
        assert own_key in error and foreign_key in error
        assert "differs from the submitter's" in error
        monkeypatch.setattr(
            "repro.sweep.cache.code_fingerprint", lambda: "submitter code"
        )
        backend = DistributedBackend(spool.root, cache=cache, timeout=10.0)
        with pytest.raises(RuntimeError, match=f"job {foreign_key} failed"):
            backend.execute([BASE])
        assert cache.get(foreign_key, record=False) is None
        assert cache.entry_count() == 0


class TestDistributedBackend:
    def test_backends_bit_identical_on_grid(self, tmp_path):
        """Serial, process, and distributed (2 real worker processes)
        produce the same ColocationResults, bit for bit."""
        grid = _grid()
        serial = SweepEngine(backend=SerialBackend()).run(grid)
        process = SweepEngine(backend=ProcessBackend(2)).run(grid)
        cache = SweepCache(tmp_path / "cache")
        distributed = SweepEngine(
            cache=cache,
            backend=DistributedBackend(
                tmp_path / "spool", cache=cache, timeout=300.0, local_workers=2
            ),
        ).run(grid)
        assert len(serial) == len(process) == len(distributed) == len(grid)
        for a, b, c in zip(serial, process, distributed):
            assert results_identical(a.result, b.result)
            assert results_identical(a.result, c.result)

    def test_32_scenario_sweep_identical_to_serial(self, tmp_path):
        """A 32-scenario spec (2 services x 2 mixes x 2 policies x 2 loads
        x 2 seeds, the `make sweep-smoke` grid at a short horizon) through
        a real worker subprocess is ResultSet.identical() to serial."""
        spec = ExperimentSpec(
            name="spool-parity",
            base={"horizon": 60.0},
            axes={
                "service": ("memcached", "mongodb"),
                "apps": (("kmeans",), ("canneal", "snp")),
                "policy": ("pliant", "precise"),
                "load_fraction": (0.6, 0.85),
                "seed": (4, 5),
            },
        )
        assert len(spec.scenarios()) == 32
        cache = SweepCache(tmp_path / "cache")
        backend = DistributedBackend(
            tmp_path / "spool", cache=cache, timeout=600.0, local_workers=1
        )
        results = run_experiment(spec, backend=backend, cache=cache)
        assert results.identical(run_experiment(spec, backend=SerialBackend()))
        status = backend.spool.status()
        assert status.done == status.total == 32
        assert status.failed == 0

    def test_results_read_back_through_shared_cache(self, tmp_path):
        """A second submitter with the same cache gets pure hits."""
        cache = SweepCache(tmp_path / "cache")
        spool_root = tmp_path / "spool"
        spool = JobSpool(spool_root)
        spool.submit_many(_grid().scenarios(), cache)
        run_worker(spool, cache=cache, exit_when_idle=True)
        warm = SweepEngine(
            cache=cache,
            backend=DistributedBackend(spool_root, cache=cache, timeout=60.0),
        ).run(_grid())
        assert all(outcome.from_cache for outcome in warm)

    def test_engine_skips_redundant_write_back(self, tmp_path):
        """Workers already published into the shared cache; the submitting
        engine must not re-pickle every result on top of that."""
        cache = SweepCache(tmp_path / "cache")
        puts = []
        original_put = cache.put
        cache.put = lambda key, result: (  # instance-level spy
            puts.append(key), original_put(key, result))
        engine = SweepEngine(
            cache=cache,
            backend=DistributedBackend(
                tmp_path / "spool", cache=cache, timeout=300.0, local_workers=1
            ),
        )
        (outcome,) = engine.run([BASE])
        assert not outcome.from_cache
        assert puts == []                       # no submitter-side rewrite
        # The probe miss is counted once; the transport read-back is not
        # a lookup and must not inflate the hit rate.
        assert (cache.hits, cache.misses) == (0, 1)

    def test_empty_batch_is_noop(self, tmp_path):
        backend = DistributedBackend(tmp_path / "spool")
        assert backend.execute([]) == []

    def test_timeout_raises(self, tmp_path):
        backend = DistributedBackend(
            tmp_path / "spool", cache=SweepCache(tmp_path / "cache"),
            timeout=0.2, poll_interval=0.01,
        )
        with pytest.raises(TimeoutError, match="1 of 1 jobs outstanding"):
            backend.execute([BASE])  # no workers attached: nothing progresses


class TestBackendFromEnv:
    def test_unset_means_default(self):
        assert backend_from_env({}) is None

    def test_serial_and_process(self):
        assert isinstance(
            backend_from_env({"REPRO_SWEEP_BACKEND": "serial"}), SerialBackend
        )
        assert isinstance(
            backend_from_env({"REPRO_SWEEP_BACKEND": "process"}), ProcessBackend
        )

    def test_distributed_requires_spool(self, tmp_path):
        with pytest.raises(ValueError, match="REPRO_SWEEP_SPOOL"):
            backend_from_env({"REPRO_SWEEP_BACKEND": "distributed"})
        backend = backend_from_env(
            {
                "REPRO_SWEEP_BACKEND": "distributed",
                "REPRO_SWEEP_SPOOL": str(tmp_path / "spool"),
                "REPRO_SWEEP_WORKERS": "2",
            }
        )
        assert isinstance(backend, DistributedBackend)
        assert backend.spool_root == tmp_path / "spool"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown REPRO_SWEEP_BACKEND"):
            backend_from_env({"REPRO_SWEEP_BACKEND": "quantum"})
