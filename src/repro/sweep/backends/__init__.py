"""Pluggable sweep execution backends.

A :class:`~repro.sweep.backends.base.ExecutionBackend` decides *where*
cache-missing scenarios run; the engine and the determinism contract
guarantee the *what* is identical everywhere:

* :class:`SerialBackend` — inline, in-process (the reference),
* :class:`ProcessBackend` — fan-out across local cores,
* :class:`DistributedBackend` — broker/worker queue over a shared
  filesystem spool (:class:`JobSpool`) and the content-addressed result
  cache (multi-host).

:func:`backend_from_env` lets any driver (figure benchmarks, examples,
CLI) be re-pointed at a different execution substrate with environment
variables alone:

========================  =============================================
``REPRO_SWEEP_BACKEND``   ``serial`` | ``process`` | ``distributed``
``REPRO_SWEEP_SPOOL``     shared spool directory (distributed only,
                          required)
``REPRO_SWEEP_WORKERS``   local workers to spawn (distributed, default 0)
========================  =============================================
"""

from __future__ import annotations

import os

from repro.sweep.backends.base import ExecutionBackend, timed_run
from repro.sweep.backends.distributed import (
    DistributedBackend,
    JobSpool,
    SpoolJob,
    SpoolStatus,
    default_worker_id,
    run_worker,
)
from repro.sweep.backends.local import ProcessBackend, SerialBackend

__all__ = [
    "DistributedBackend",
    "ExecutionBackend",
    "JobSpool",
    "ProcessBackend",
    "SerialBackend",
    "SpoolJob",
    "SpoolStatus",
    "backend_from_env",
    "default_worker_id",
    "run_worker",
    "timed_run",
]


def backend_from_env(environ=None) -> ExecutionBackend | None:
    """Build a backend from ``REPRO_SWEEP_*`` variables, or ``None``.

    ``None`` (no ``REPRO_SWEEP_BACKEND`` set) tells the engine to pick
    its default local backend from its ``workers`` argument.
    """
    env = os.environ if environ is None else environ
    spec = (env.get("REPRO_SWEEP_BACKEND") or "").strip().lower()
    if not spec:
        return None
    if spec == "serial":
        return SerialBackend()
    if spec == "process":
        return ProcessBackend()
    if spec == "distributed":
        spool = env.get("REPRO_SWEEP_SPOOL")
        if not spool:
            raise ValueError(
                "REPRO_SWEEP_BACKEND=distributed needs REPRO_SWEEP_SPOOL "
                "to name the shared spool directory"
            )
        workers = int(env.get("REPRO_SWEEP_WORKERS", "0") or 0)
        return DistributedBackend(spool, local_workers=workers)
    raise ValueError(
        f"unknown REPRO_SWEEP_BACKEND {spec!r} "
        "(expected serial, process, or distributed)"
    )
