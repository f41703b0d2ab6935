"""The sweep engine: a facade over pluggable execution backends.

``SweepEngine.run`` takes a :class:`~repro.sweep.grid.SweepGrid` (or any
iterable of scenarios), satisfies what it can from the result cache,
hands the misses to an :class:`~repro.sweep.backends.ExecutionBackend`
(inline, local process pool, or a distributed broker/worker queue), and
returns outcomes in grid order.  Scenario results are a pure function of
the scenario config — every random stream inside a run derives from the
scenario's own seed via :mod:`repro.rng` — so every backend produces
bit-identical results and caching is sound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.arbiter import ImpactAwareArbiter
from repro.telemetry import get_recorder
from repro.core.baselines import (
    CoreReclaimOnlyPolicy,
    PrecisePolicy,
    StaticLevelPolicy,
    StaticMostApproxPolicy,
)
from repro.core.policy import PliantPolicy, RuntimePolicy
from repro.core.runtime import ColocationResult
from repro.sweep.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.sweep.cache import SweepCache
from repro.sweep.digest import result_digest
from repro.sweep.grid import Scenario, SweepGrid

#: Builders from (scenario, kwargs) to a policy instance.  Keyed by the
#: policy's display name so ``Scenario.policy`` round-trips through
#: ``RuntimePolicy.name``.  Backing store for :func:`register_policy` —
#: prefer the function over mutating this dict directly.
POLICY_REGISTRY: dict[str, Callable[[Scenario, dict], RuntimePolicy]] = {
    "pliant": lambda sc, kw: PliantPolicy(seed=sc.seed, **kw),
    "pliant-impact": lambda sc, kw: PliantPolicy(
        seed=sc.seed, arbiter=ImpactAwareArbiter(), **kw
    ),
    "precise": lambda sc, kw: PrecisePolicy(),
    "static-most-approx": lambda sc, kw: StaticMostApproxPolicy(),
    "static-level": lambda sc, kw: StaticLevelPolicy(dict(kw["levels"])),
    "core-reclaim-only": lambda sc, kw: CoreReclaimOnlyPolicy(**kw),
}


def register_policy(
    name: str,
    builder: Callable[[Scenario, dict], RuntimePolicy],
    overwrite: bool = False,
) -> Callable[[Scenario, dict], RuntimePolicy]:
    """Register a policy builder under ``name`` for scenarios to reference.

    ``builder(scenario, kwargs)`` must return a fresh policy instance.
    Scenarios carry only the *name* (plus JSON-safe kwargs), which is what
    lets them travel to remote workers: a worker re-resolves the name at
    execution time, so the module calling ``register_policy`` must be
    importable there too (``python -m repro.sweep worker --import
    your.module``).  Returns ``builder`` so it can be used as a decorator
    via ``functools.partial(register_policy, "name")``.
    """
    if not callable(builder):
        raise TypeError(f"policy builder for {name!r} must be callable")
    if not overwrite and name in POLICY_REGISTRY:
        raise ValueError(
            f"policy {name!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    POLICY_REGISTRY[name] = builder
    return builder


def registered_policies() -> tuple[str, ...]:
    """Sorted names of every registered policy."""
    return tuple(sorted(POLICY_REGISTRY))


def make_policy(scenario: Scenario) -> RuntimePolicy:
    """Instantiate the policy a scenario names."""
    try:
        builder = POLICY_REGISTRY[scenario.policy]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ValueError(
            f"unknown policy {scenario.policy!r} (known: {known}); "
            "custom policies must be registered with "
            "repro.sweep.register_policy(name, builder) — and the "
            "registering module imported inside remote workers "
            "(worker --import)"
        ) from None
    return builder(scenario, dict(scenario.policy_kwargs))


def run_scenario(scenario: Scenario) -> ColocationResult:
    """Run one scenario to completion (used directly by worker processes)."""
    # Imported lazily: repro.cluster re-exports sweep helpers that import
    # this module, so a top-level import would be circular.
    from repro.cluster.colocation import build_engine

    engine = build_engine(
        scenario.service,
        scenario.apps,
        make_policy(scenario),
        config=scenario.config(),
        exploration_seed=scenario.exploration_seed,
        platform=scenario.platform,
        loadgen_spec=(
            None
            if scenario.has_default_loadgen()
            else (scenario.loadgen_shape, scenario.loadgen_params)
        ),
    )
    return engine.run()


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
    """Facade: cache probing + an execution backend, in grid order.

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
        grid: SweepGrid | Iterable[Scenario],
        force: bool = False,
    ) -> list[SweepOutcome]:
        """Evaluate every scenario; outcomes come back in grid order.

        ``force`` bypasses cache *reads* (results are still written back),
        which is how benchmarks measure a guaranteed-cold pass.
        """
        scenarios = list(grid.scenarios() if isinstance(grid, SweepGrid) else grid)
        outcomes: dict[int, SweepOutcome] = {}
        pending: list[tuple[int, Scenario]] = []
        telemetry = get_recorder()

        with telemetry.span("sweep.run", cat="engine", scenarios=len(scenarios)):
            for index, scenario in enumerate(scenarios):
                cached = None
                if self._cache is not None and not force:
                    cached = self._cache.get(self._cache.key(scenario))
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
                write_back = self._cache is not None and (
                    store is None or store.root != self._cache.root
                )
                for (index, scenario), (result, duration) in zip(pending, computed):
                    if write_back:
                        self._cache.put(self._cache.key(scenario), result)
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

    def run_results(
        self,
        grid: SweepGrid | Iterable[Scenario],
        force: bool = False,
    ) -> list[ColocationResult]:
        """Like :meth:`run`, returning bare results."""
        return [outcome.result for outcome in self.run(grid, force=force)]

    def run_one(self, scenario: Scenario, force: bool = False) -> ColocationResult:
        """Evaluate a single scenario through the cache."""
        return self.run([scenario], force=force)[0].result
