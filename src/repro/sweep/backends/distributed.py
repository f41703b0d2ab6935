"""Fault-tolerant broker/worker execution over a shared filesystem spool.

The distributed backend turns a sweep into datacenter-shaped work: the
submitting host enqueues scenario jobs in a :class:`JobSpool` — a
directory on storage every participant can reach, zero daemons, every
operation a small atomic filesystem action — stateless **workers** claim
jobs in *chunks* via leases, execute them, and publish results into the
shared content-addressed :class:`~repro.sweep.cache.SweepCache`; the
submitter polls done markers and reads results back by config hash.

Spool layout (all writes atomic: tmp + rename, or ``O_CREAT|O_EXCL``)::

    <spool>/jobs/<job_id>.json     scenario payload (content-addressed id)
    <spool>/leases/<job_id>.lease  owner token; mtime is the heartbeat
    <spool>/done/<job_id>.json     {key, duration, worker} once finished
    <spool>/logs/worker-*.log      stdout/stderr of locally spawned workers

Lease semantics
---------------
* **Claim**: creating the lease file with ``O_CREAT | O_EXCL`` — a true
  filesystem-level mutex, so two racing workers claim a fresh job exactly
  once.  A claim leases up to K jobs in one directory scan
  (:meth:`JobSpool.claim_chunk`), so the scan cost amortizes K-fold.
* **Heartbeat**: the owner touches the lease mtimes of its whole chunk
  on one background thread while the jobs run.
* **Expiry / steal**: a lease is presumed dead (worker crashed mid-job)
  once *this observer* has watched its mtime stay frozen for
  ``lease_ttl`` seconds of local monotonic time.  Ages are never derived
  from ``time.time() - mtime``: the mtime was written by another host,
  and on NFS-style spools a few seconds of clock skew would spuriously
  expire live leases (or keep dead ones alive).  Any worker may steal an
  expired lease by atomically replacing it and verifying its own token
  read back.  The verification window still admits a rare
  double-execution — which is *safe*, because results are a pure
  function of the scenario config and cache writes are idempotent.
  Leases guarantee at-least-once execution and best-effort exactly-once;
  determinism upgrades that to exactly-once *semantics*.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.cas import atomic_write_bytes, stable_hash
from repro.sweep.backends.base import ExecutionBackend, timed_run
from repro.sweep.cache import SweepCache
from repro.sweep.grid import Scenario
from repro.telemetry import flush as telemetry_flush
from repro.telemetry import get_recorder

__all__ = [
    "DistributedBackend",
    "JobSpool",
    "SpoolJob",
    "SpoolStatus",
    "default_worker_id",
    "run_worker",
]

#: A chunk lease targets this many seconds of scenario compute by default:
#: long enough to amortize broker round trips thousandfold on sub-50ms
#: scenarios, short enough that a crashed worker forfeits ~1s of work.
DEFAULT_CHUNK_TARGET = 1.0

#: Upper bound on jobs per lease regardless of how cheap scenarios are,
#: so one worker cannot strand the whole tail of a grid behind its lease.
DEFAULT_CHUNK_MAX = 16


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class SpoolJob:
    """One claimed unit of work."""

    job_id: str
    scenario: Scenario


@dataclass(frozen=True)
class SpoolStatus:
    """Point-in-time census of a spool.

    ``done`` counts every job with a completion marker, including the
    ``failed`` ones (a failed job is drained — it will not be retried
    until explicitly re-queued).
    """

    total: int
    done: int
    running: int
    expired: int
    pending: int
    failed: int = 0

    def to_payload(self) -> dict:
        return {
            "total": self.total,
            "done": self.done,
            "running": self.running,
            "expired": self.expired,
            "pending": self.pending,
            "failed": self.failed,
        }


class JobSpool:
    """Filesystem broker: submit, claim, heartbeat, complete.

    Every operation is a small atomic filesystem action, so any number of
    submitters and workers can share one spool with no coordinator
    process.  Job ids are content-addressed (a stable hash of the
    scenario payload), which dedupes identical scenarios across
    submitters for free.  Every claim is *chunked* — one directory scan
    leases up to ``max_jobs`` scenarios, one heartbeat pass covers the
    whole chunk — so per-scenario spool overhead amortizes K-fold.
    """

    def __init__(self, root: Path | str, lease_ttl: float = 30.0) -> None:
        if "://" in str(root):
            # Path() would silently fold "scheme://host" into a
            # "scheme:/host" directory under the working directory.
            raise ValueError(
                f"spool {str(root)!r} is a URL: TCP spools were removed; "
                "use a directory every submitter and worker can reach"
            )
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self._root = Path(root)
        self.lease_ttl = lease_ttl
        #: job_id -> (lease mtime_ns, monotonic time we first saw it).
        #: Liveness bookkeeping for :meth:`lease_age` — ages are measured
        #: as local monotonic dwell at an unchanged mtime, never as
        #: wall-clock minus another host's timestamp.
        self._lease_seen: dict[str, tuple[int, float]] = {}
        for sub in ("jobs", "leases", "done"):
            (self._root / sub).mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    # -- paths -----------------------------------------------------------

    def job_id(self, scenario: Scenario) -> str:
        return stable_hash(scenario.key_payload(), length=24)

    def job_path(self, job_id: str) -> Path:
        return self._root / "jobs" / f"{job_id}.json"

    def lease_path(self, job_id: str) -> Path:
        return self._root / "leases" / f"{job_id}.lease"

    def done_path(self, job_id: str) -> Path:
        return self._root / "done" / f"{job_id}.json"

    # -- submit side -----------------------------------------------------

    def submit(self, scenario: Scenario) -> str:
        """Spool one scenario; returns its job id (idempotent)."""
        job_id = self.job_id(scenario)
        path = self.job_path(job_id)
        if not path.exists():
            payload = json.dumps(scenario.to_payload(), sort_keys=True)
            atomic_write_bytes(path, payload.encode())
        return job_id

    def submit_many(self, scenarios: Sequence[Scenario]) -> list[str]:
        return [self.submit(scenario) for scenario in scenarios]

    def load_scenario(self, job_id: str) -> Scenario:
        return Scenario.from_payload(json.loads(self.job_path(job_id).read_text()))

    def job_ids(self) -> list[str]:
        return sorted(p.stem for p in (self._root / "jobs").glob("*.json"))

    # -- lease lifecycle -------------------------------------------------

    def lease_age(self, job_id: str) -> float | None:
        """Seconds *this observer* has seen the lease without a heartbeat.

        ``None`` if unleased.  A lease whose mtime just changed (or that
        we are seeing for the first time) has age 0: the age is the local
        monotonic dwell since the last observed mtime change, so a remote
        worker's skewed wall clock can neither spuriously expire a live
        lease nor keep a dead one alive.  The cost is that a fresh
        observer must watch a dead lease for a full ``lease_ttl`` before
        stealing it — the safe direction to err.
        """
        try:
            mtime_ns = self.lease_path(job_id).stat().st_mtime_ns
        except OSError:
            self._lease_seen.pop(job_id, None)
            return None
        now = time.monotonic()
        seen = self._lease_seen.get(job_id)
        if seen is None or seen[0] != mtime_ns:
            self._lease_seen[job_id] = (mtime_ns, now)
            return 0.0
        return now - seen[1]

    def try_claim(self, job_id: str, worker_id: str, _retry: bool = True) -> bool:
        """Attempt to own ``job_id``; at most one claimer of a fresh job wins."""
        if self.done_path(job_id).exists():
            return False
        token = f"{worker_id}:{uuid.uuid4().hex}"
        lease = self.lease_path(job_id)
        try:
            fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            age = self.lease_age(job_id)
            if age is None:
                # The owner released between our failed O_EXCL and the
                # stat — the job is free again, so take one more swing at
                # the O_EXCL create instead of wrongly reporting it taken.
                return _retry and self.try_claim(job_id, worker_id, _retry=False)
            if age <= self.lease_ttl:
                return False  # live owner
            return self._steal(job_id, token)
        with os.fdopen(fd, "w") as handle:
            handle.write(token)
        return True

    def _steal(self, job_id: str, token: str) -> bool:
        """Replace an expired lease; read-back verification breaks ties."""
        lease = self.lease_path(job_id)
        tmp = lease.with_suffix(f".steal-{uuid.uuid4().hex}")
        try:
            tmp.write_text(token)
            os.replace(tmp, lease)
            won = lease.read_text() == token
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        if won:
            self._lease_seen.pop(job_id, None)
            get_recorder().event("lease.stolen", cat="spool", job=job_id)
        return won

    def heartbeat(self, job_id: str) -> None:
        try:
            os.utime(self.lease_path(job_id))
        except OSError:
            pass  # lease stolen or spool pruned; the job re-runs harmlessly

    def heartbeat_many(self, job_ids: Sequence[str]) -> None:
        for job_id in job_ids:
            self.heartbeat(job_id)

    def release(self, job_id: str) -> None:
        """Drop a lease without completing the job (worker shutting down)."""
        self._lease_seen.pop(job_id, None)
        try:
            self.lease_path(job_id).unlink()
        except OSError:
            pass

    def release_many(self, job_ids: Sequence[str]) -> None:
        for job_id in job_ids:
            self.release(job_id)

    def claim_chunk(self, worker_id: str, max_jobs: int = 1) -> list[SpoolJob]:
        """Lease up to ``max_jobs`` runnable jobs in one directory scan.

        The scan — one listdir plus a done-marker stat per job — is the
        expensive part of a filesystem claim; leasing a whole chunk per
        scan is what amortizes spool overhead K-fold for sub-second
        scenarios.
        """
        chunk: list[SpoolJob] = []
        for job_id in self.job_ids():
            if len(chunk) >= max_jobs:
                break
            if self.done_path(job_id).exists():
                continue
            if self.try_claim(job_id, worker_id):
                try:
                    chunk.append(
                        SpoolJob(job_id=job_id, scenario=self.load_scenario(job_id))
                    )
                except (OSError, ValueError, KeyError, TypeError):
                    self.quarantine(job_id)  # torn or foreign job file
                    self.release(job_id)
        return chunk

    def claim_next(self, worker_id: str) -> SpoolJob | None:
        """Claim the first available job, or ``None`` if nothing is claimable."""
        chunk = self.claim_chunk(worker_id, max_jobs=1)
        return chunk[0] if chunk else None

    def quarantine(self, job_id: str) -> None:
        """Sideline a malformed job file so it stops being claimable.

        Renames ``jobs/<id>.json`` to ``jobs/<id>.json.bad`` (out of the
        ``*.json`` glob), otherwise a single torn or foreign job file
        would be claimed, fail to parse, and be released forever —
        livelocking every ``--exit-when-idle`` worker in the fleet.
        """
        path = self.job_path(job_id)
        try:
            os.replace(path, path.with_suffix(".json.bad"))
        except OSError:
            pass

    # -- completion ------------------------------------------------------

    def mark_done(
        self, job_id: str, key: str, duration: float, worker_id: str
    ) -> None:
        atomic_write_bytes(
            self.done_path(job_id),
            json.dumps(
                {"key": key, "duration": duration, "worker": worker_id}
            ).encode(),
        )

    def mark_failed(self, job_id: str, error: str, worker_id: str) -> None:
        """Record a permanent failure as a done marker with an error.

        A failed job must not go back in the queue: releasing it would
        hand the same poison scenario to the next worker, crashing the
        fleet one process at a time.  The submitter surfaces the error;
        :meth:`reset_job` (or fixing the config) makes it runnable again.
        """
        atomic_write_bytes(
            self.done_path(job_id),
            json.dumps({"error": error, "worker": worker_id}).encode(),
        )

    def done_info(self, job_id: str) -> dict | None:
        try:
            return json.loads(self.done_path(job_id).read_text())
        except (OSError, ValueError):
            return None

    def done_info_many(self, job_ids: Sequence[str]) -> dict[str, dict]:
        infos: dict[str, dict] = {}
        for job_id in job_ids:
            info = self.done_info(job_id)
            if info is not None:
                infos[job_id] = info
        return infos

    def reset_job(self, job_id: str) -> None:
        """Forget a completion (e.g. its cache entry was pruned) so it re-runs."""
        self._lease_seen.pop(job_id, None)
        for path in (self.done_path(job_id), self.lease_path(job_id)):
            try:
                path.unlink()
            except OSError:
                pass

    def all_done(self) -> bool:
        return all(self.done_path(job_id).exists() for job_id in self.job_ids())

    def status(self) -> SpoolStatus:
        total = done = running = expired = pending = failed = 0
        for job_id in self.job_ids():
            total += 1
            if self.done_path(job_id).exists():
                done += 1
                info = self.done_info(job_id)
                if info is not None and "error" in info:
                    failed += 1
                continue
            age = self.lease_age(job_id)
            if age is None:
                pending += 1
            elif age <= self.lease_ttl:
                running += 1
            else:
                expired += 1
        return SpoolStatus(
            total=total, done=done, running=running, expired=expired,
            pending=pending, failed=failed,
        )


class _LeaseHeartbeat:
    """Beats every lease of an in-flight chunk on one daemon thread.

    ``job_ids`` is a live set the worker shrinks as jobs complete, so a
    finished job's lease stops being touched without thread churn.
    """

    def __init__(
        self, spool: JobSpool, job_ids: set[str], interval: float
    ) -> None:
        self._spool = spool
        self._job_ids = job_ids
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            beat = sorted(self._job_ids)  # snapshot: the worker mutates the set
            if beat:
                self._spool.heartbeat_many(beat)

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def run_worker(
    spool: JobSpool | Path | str,
    cache: SweepCache | None = None,
    lease_ttl: float = 30.0,
    heartbeat_interval: float | None = None,
    poll_interval: float = 0.2,
    exit_when_idle: bool = False,
    max_jobs: int | None = None,
    worker_id: str | None = None,
    chunk_target: float = DEFAULT_CHUNK_TARGET,
    chunk_max: int = DEFAULT_CHUNK_MAX,
) -> int:
    """Serve a spool: claim chunks → execute → publish, until told to stop.

    Returns the number of jobs this worker executed.  ``spool`` is a
    :class:`JobSpool` or its directory.  Each lease claims up to
    ``chunk_max`` jobs sized so a chunk holds roughly ``chunk_target``
    seconds of work (an EWMA of measured
    per-scenario cost decides K — the first claim takes a single job to
    get a measurement).  ``exit_when_idle`` makes the worker exit once
    every spooled job has a done marker (it keeps waiting while other
    workers hold live leases, so it can take over if they die).  Workers
    are stateless: killing one at any point loses nothing but the lease
    TTL and the unfinished remainder of its chunk.
    """
    if not isinstance(spool, JobSpool):
        spool = JobSpool(spool, lease_ttl=lease_ttl)
    cache = cache if cache is not None else SweepCache()
    worker_id = worker_id or default_worker_id()
    if chunk_max < 1:
        raise ValueError("chunk_max must be at least 1")
    heartbeat = (
        heartbeat_interval
        if heartbeat_interval is not None
        else max(spool.lease_ttl / 4.0, 0.05)
    )
    telemetry = get_recorder()
    if telemetry.enabled:
        # The merged timeline shows one track per worker, not one
        # anonymous "main" per process.  Flush immediately so the worker
        # appears on the timeline even if it dies before its first chunk
        # completes (the smoke test SIGKILLs one mid-chunk).
        telemetry.process = worker_id
        telemetry_flush()
    executed = 0
    avg_cost: float | None = None  # EWMA seconds per scenario
    while max_jobs is None or executed < max_jobs:
        want = (
            1
            if avg_cost is None
            else max(1, min(chunk_max, int(chunk_target / max(avg_cost, 1e-6))))
        )
        if max_jobs is not None:
            want = min(want, max_jobs - executed)
        chunk = spool.claim_chunk(worker_id, max_jobs=want)
        if not chunk:
            if exit_when_idle and spool.all_done():
                break
            time.sleep(poll_interval)
            continue
        telemetry.count("worker.claims")
        telemetry.observe("worker.chunk_size", len(chunk))
        telemetry.event(
            "chunk.claimed", cat="worker", jobs=len(chunk), want=want
        )
        leased = {job.job_id for job in chunk}
        with _LeaseHeartbeat(spool, leased, heartbeat):
            for job in chunk:
                try:
                    result, duration = timed_run(job.scenario)
                except Exception as exc:
                    # Deterministic scenarios fail deterministically
                    # (unknown policy, bad kwargs): re-queueing the job
                    # would crash the next worker too, one process at a
                    # time, until the fleet is dead.  Record the failure
                    # and keep serving.
                    spool.mark_failed(
                        job.job_id, error=f"{type(exc).__name__}: {exc}",
                        worker_id=worker_id,
                    )
                    telemetry.count("worker.failed")
                    telemetry.event(
                        "job.failed", cat="worker", job=job.job_id,
                        error=type(exc).__name__,
                    )
                    leased.discard(job.job_id)
                    executed += 1
                    continue
                except BaseException:
                    # Shutdown mid-chunk: hand the unfinished remainder back.
                    spool.release_many(sorted(leased))
                    telemetry_flush()
                    raise
                cache.put(cache.key(job.scenario), result)
                spool.mark_done(
                    job.job_id, key=cache.key(job.scenario), duration=duration,
                    worker_id=worker_id,
                )
                telemetry.count("worker.done")
                leased.discard(job.job_id)
                executed += 1
                avg_cost = (
                    duration
                    if avg_cost is None
                    else 0.5 * avg_cost + 0.5 * duration
                )
        # Re-flush after every chunk so `sweep status --watch` (and a
        # collector racing worker exit) sees a near-live shard.
        telemetry_flush()
    telemetry_flush()
    return executed


class DistributedBackend(ExecutionBackend):
    """Execute scenarios through a shared spool and worker fleet.

    ``execute`` submits jobs, optionally spawns ``local_workers`` worker
    processes (``python -m repro.sweep worker``) against the spool, then
    polls done markers and reads each result back from the shared cache
    by its config hash.  ``spool`` is a :class:`JobSpool` or its
    directory.  Remote hosts join the same sweep by running workers
    against the same spool and cache paths — no code changes.
    """

    name = "distributed"

    def __init__(
        self,
        spool: JobSpool | Path | str,
        cache: SweepCache | None = None,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.05,
        timeout: float | None = None,
        local_workers: int = 0,
        import_modules: tuple[str, ...] = (),
    ) -> None:
        self._spool = (
            spool
            if isinstance(spool, JobSpool)
            else JobSpool(spool, lease_ttl=lease_ttl)
        )
        self._cache = cache if cache is not None else SweepCache()
        self._lease_ttl = lease_ttl
        self._poll_interval = poll_interval
        self._timeout = timeout
        self._local_workers = local_workers
        self._import_modules = tuple(import_modules)

    @property
    def cache(self) -> SweepCache:
        return self._cache

    def result_store(self) -> SweepCache:
        return self._cache

    @property
    def spool(self) -> JobSpool:
        return self._spool

    @property
    def spool_root(self) -> Path:
        return self._spool.root

    def spawn_local_worker(
        self, index: int = 0, exit_when_idle: bool = True
    ) -> subprocess.Popen:
        """Start one worker subprocess against this backend's spool."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else os.pathsep.join([src_dir, existing])
        )
        log_dir = self.spool_root / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        log_path = log_dir / f"worker-{os.getpid()}-{index}.log"
        cmd = [
            sys.executable,
            "-m",
            "repro.sweep",
            "worker",
            "--spool", str(self.spool_root),
            "--cache", str(self._cache.root),
            "--lease-ttl", str(self._lease_ttl),
            "--poll", str(max(self._poll_interval, 0.01)),
        ]
        if exit_when_idle:
            cmd.append("--exit-when-idle")
        for module in self._import_modules:
            cmd += ["--import", module]
        with open(log_path, "ab") as log:
            return subprocess.Popen(cmd, stdout=log, stderr=log, env=env)

    def execute(self, scenarios: Sequence[Scenario]) -> list[tuple]:
        scenarios = list(scenarios)
        if not scenarios:
            return []
        job_ids = self._spool.submit_many(scenarios)
        workers = [
            self.spawn_local_worker(i) for i in range(self._local_workers)
        ]
        try:
            return self._collect(job_ids, workers)
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()

    def _collect(
        self, job_ids: list[str], workers: list[subprocess.Popen]
    ) -> list[tuple]:
        spool = self._spool
        deadline = (
            time.monotonic() + self._timeout if self._timeout is not None else None
        )
        collected: dict[str, tuple] = {}
        outstanding = dict.fromkeys(job_ids)  # preserves order, dedupes
        exited_strikes = 0
        telemetry = get_recorder()
        next_gauge = 0.0  # monotonic deadline for the next census sample
        while True:
            if telemetry.enabled and time.monotonic() >= next_gauge:
                # Sampling the census is a full spool scan — throttle it
                # well below the collect poll rate.
                census = spool.status()
                telemetry.gauge("broker.queue_depth", census.pending)
                telemetry.gauge("broker.running", census.running)
                telemetry.gauge("broker.expired", census.expired)
                next_gauge = time.monotonic() + max(self._poll_interval, 0.5)
            waiting = [j for j in outstanding if j not in collected]
            for job_id, info in spool.done_info_many(waiting).items():
                if "error" in info:
                    raise RuntimeError(
                        f"job {job_id} failed on worker "
                        f"{info.get('worker', '?')}: {info['error']} "
                        f"(spool.reset_job({job_id!r}) re-queues it)"
                    )
                result = self._cache.get(info["key"], record=False)
                if result is None:
                    # Done marker outlived its cache entry (pruned or torn):
                    # forget the completion so a worker recomputes it.
                    spool.reset_job(job_id)
                    telemetry.count("collector.requeued")
                    telemetry.event("job.requeued", cat="collector", job=job_id)
                    continue
                collected[job_id] = (result, float(info.get("duration", 0.0)))
            if all(job_id in collected for job_id in outstanding):
                break
            if deadline is not None and time.monotonic() > deadline:
                missing = [j for j in outstanding if j not in collected]
                raise TimeoutError(
                    f"distributed sweep timed out with {len(missing)} of "
                    f"{len(outstanding)} jobs outstanding (spool: "
                    f"{self.spool_root}, first missing: {missing[0]})"
                )
            if workers and all(proc.poll() is not None for proc in workers):
                # Every locally spawned worker exited with jobs outstanding
                # (exit-when-idle only fires on a drained spool) — crashed
                # workers would otherwise hang the submitter forever when
                # no external fleet is attached.  A worker can also exit in
                # the gap between our collect pass and this check, so only
                # raise after a second pass confirms nothing new landed.
                exited_strikes += 1
                if exited_strikes >= 2:
                    missing = [j for j in outstanding if j not in collected]
                    raise RuntimeError(
                        f"all {len(workers)} local workers exited with "
                        f"{len(missing)} jobs outstanding; see logs under "
                        f"{self.spool_root / 'logs'}"
                    )
            time.sleep(self._poll_interval)
        return [collected[job_id] for job_id in job_ids]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedBackend(spool={str(self.spool_root)!r}, "
            f"local_workers={self._local_workers})"
        )
