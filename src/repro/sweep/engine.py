"""The sweep engine: a facade over pluggable execution backends.

``SweepEngine.run`` takes any iterable of scenarios (an
:class:`~repro.experiment.ExperimentSpec` is one), satisfies what it can
from the result cache, hands the misses to an
:class:`~repro.sweep.backends.ExecutionBackend` (inline, local process
pool, or a distributed broker/worker queue), and returns outcomes in
input order.  Scenario results are a pure function of
the scenario config — every random stream inside a run derives from the
scenario's own seed via :mod:`repro.rng` — so every backend produces
bit-identical results and caching is sound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from repro.cluster import colocation
from repro.core.runtime import ColocationResult
from repro.sweep.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.sweep.cache import SweepCache
from repro.sweep.digest import result_digest
from repro.sweep.grid import Scenario
from repro.telemetry import get_recorder


def run_scenario(scenario: Scenario) -> ColocationResult:
    """Run one scenario to completion (used directly by worker processes).

    The builder is looked up on its module at each call, so a wrapper
    installed there (a profiler's, a test's) sees every build.
    """
    return colocation.build_engine(scenario).run()


def results_identical(a: ColocationResult, b: ColocationResult) -> bool:
    """Strict bit-level equality of two colocation results.

    Used to assert that serial and parallel sweeps of the same grid are
    indistinguishable (the determinism contract of the engine).  Compares
    structural digests, so a field added to the result is compared too.
    """
    return result_digest(a) == result_digest(b)


@dataclass
class SweepOutcome:
    """One scenario's result plus execution provenance."""

    scenario: Scenario
    result: ColocationResult
    from_cache: bool
    duration: float


class SweepEngine:
    """Facade: cache probing + an execution backend, in input order.

    Parameters
    ----------
    workers:
        Worker process count for the *default local* backend.  ``None``
        uses ``os.cpu_count()``; ``0`` or ``1`` runs inline (serial
        backend).  Ignored when ``backend`` is given.  Parallelism never
        changes results — only wall-clock.
    cache:
        A :class:`SweepCache` to memoize results in, or ``None`` (default)
        to recompute every scenario.  Benchmarks pass an explicit cache so
        reruns are near-free; unit tests default to uncached runs.
    backend:
        An explicit :class:`~repro.sweep.backends.ExecutionBackend`
        (e.g. :class:`~repro.sweep.backends.DistributedBackend` for
        multi-host fan-out).  ``None`` picks
        :class:`~repro.sweep.backends.SerialBackend` or
        :class:`~repro.sweep.backends.ProcessBackend` from ``workers``.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: SweepCache | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self._workers = workers
        self._cache = cache
        self._backend = backend

    @property
    def cache(self) -> SweepCache | None:
        return self._cache

    @property
    def backend(self) -> ExecutionBackend | None:
        """The explicit backend, or ``None`` when resolved per-run."""
        return self._backend

    def effective_workers(self, pending: int) -> int:
        workers = self._workers if self._workers is not None else os.cpu_count() or 1
        return max(1, min(workers, pending)) if pending else 1

    def resolve_backend(self, pending: int) -> ExecutionBackend:
        """The backend a run with ``pending`` cache misses would use."""
        if self._backend is not None:
            return self._backend
        if self.effective_workers(pending) <= 1 or pending <= 1:
            return SerialBackend()
        # The backend applies the pending/cpu clamp itself (worker_budget
        # is the same rule as effective_workers) — don't clamp twice.
        return ProcessBackend(self._workers)

    def run(
        self,
        scenarios: Iterable[Scenario],
        force: bool = False,
    ) -> list[SweepOutcome]:
        """Evaluate every scenario; outcomes come back in input order.

        ``force`` bypasses cache *reads* (results are still written back),
        which is how benchmarks measure a guaranteed-cold pass.
        """
        scenarios = list(scenarios)
        cache = self._cache
        outcomes: dict[int, SweepOutcome] = {}
        pending: list[tuple[int, Scenario]] = []
        telemetry = get_recorder()

        with telemetry.span("sweep.run", cat="engine", scenarios=len(scenarios)):
            # One key per scenario, shared by its lookup and its write-back.
            keys = [] if cache is None else list(map(cache.key, scenarios))
            for index, scenario in enumerate(scenarios):
                cached = None
                if cache is not None and not force:
                    cached = cache.get(keys[index])
                if cached is not None:
                    telemetry.count("sweep.cache.hit")
                    outcomes[index] = SweepOutcome(
                        scenario=scenario,
                        result=cached,
                        from_cache=True,
                        duration=0.0,
                    )
                else:
                    telemetry.count("sweep.cache.miss")
                    pending.append((index, scenario))

            if pending:
                backend = self.resolve_backend(len(pending))
                with telemetry.span(
                    "sweep.execute",
                    cat="engine",
                    backend=backend.name,
                    pending=len(pending),
                ):
                    computed = backend.execute([s for _, s in pending])
                # Skip the write-back when the backend's workers already
                # published into this very cache (same root): re-pickling
                # every distributed result would double the disk traffic.
                store = backend.result_store()
                write_back = cache is not None and (
                    store is None or store.root != cache.root
                )
                for (index, scenario), (result, duration) in zip(pending, computed):
                    if write_back:
                        cache.put(keys[index], result)
                    # Per-scenario durations reach the engine even when
                    # they ran in pool children that never flush a shard.
                    telemetry.observe("sweep.scenario_s", duration)
                    outcomes[index] = SweepOutcome(
                        scenario=scenario,
                        result=result,
                        from_cache=False,
                        duration=duration,
                    )

        return [outcomes[i] for i in range(len(scenarios))]
