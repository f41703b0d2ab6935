"""Parallel experiment/sweep subsystem.

The evaluation figures all reduce to sweeping a grid of colocation
scenarios — (service, app mix, load, policy, decision interval, seed) —
and aggregating the per-scenario :class:`~repro.core.runtime.ColocationResult`.
This package makes that grid a first-class object:

* :mod:`repro.sweep.grid` — declarative scenario grids
  (:class:`Scenario`, :class:`SweepGrid`),
* :mod:`repro.sweep.cache` — on-disk content-addressed result cache
  (:class:`SweepCache`), keyed by a stable hash of the scenario config,
  with stats and LRU pruning,
* :mod:`repro.sweep.backends` — pluggable execution backends: inline
  (:class:`SerialBackend`), local process fan-out
  (:class:`ProcessBackend`), and a fault-tolerant broker/worker queue
  (:class:`DistributedBackend`) over a shared filesystem spool
  (:class:`JobSpool`) with chunked leases that claim ~1s of work at a
  time,
* :mod:`repro.sweep.engine` — :class:`SweepEngine`, the facade that
  probes the cache and hands misses to a backend, plus the policy
  registry (:func:`register_policy`),
* :mod:`repro.sweep.cli` — ``python -m repro.sweep``: submit grids,
  serve a spool as a worker, inspect spool/cache state.

Results are bit-identical between serial, process-parallel, and
distributed execution because every scenario derives its random streams
purely from its own config (see :mod:`repro.rng`) — never from execution
order, placement, or wall-clock time.
"""

from repro.sweep.backends import (
    DistributedBackend,
    ExecutionBackend,
    JobSpool,
    ProcessBackend,
    SerialBackend,
    backend_from_env,
    run_worker,
)
from repro.sweep.cache import (
    CacheStats,
    PruneResult,
    SweepCache,
    default_sweep_cache_dir,
    stable_hash,
)
from repro.sweep.engine import (
    SweepEngine,
    SweepOutcome,
    register_policy,
    registered_policies,
    results_identical,
    run_scenario,
)
from repro.sweep.grid import Scenario, SweepGrid

__all__ = [
    "CacheStats",
    "DistributedBackend",
    "ExecutionBackend",
    "JobSpool",
    "ProcessBackend",
    "PruneResult",
    "Scenario",
    "SerialBackend",
    "SweepCache",
    "SweepEngine",
    "SweepGrid",
    "SweepOutcome",
    "backend_from_env",
    "default_sweep_cache_dir",
    "register_policy",
    "registered_policies",
    "results_identical",
    "run_scenario",
    "run_worker",
    "stable_hash",
]
