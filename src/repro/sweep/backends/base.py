"""The execution-backend protocol.

A backend answers exactly one question: given scenarios that missed the
cache, produce their results.  Everything else — cache probing, grid
ordering, outcome bookkeeping — stays in
:class:`~repro.sweep.engine.SweepEngine`, which is a thin facade over a
backend.  Because scenario results are a pure function of the scenario
config (bit-reproducible seeding, see :mod:`repro.rng`), *where* a
scenario runs can never change *what* it returns — backends only trade
wall-clock, fault tolerance, and locality.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.runtime import ColocationResult
    from repro.sweep.grid import Scenario


def timed_run(scenario: "Scenario") -> tuple["ColocationResult", float]:
    """Run one scenario, returning ``(result, wall_seconds)``.

    Module-level (not a closure) so process pools can pickle it by
    reference; the engine import is deferred because
    :mod:`repro.sweep.engine` imports this package at module scope.
    """
    from repro.sweep.engine import run_scenario
    from repro.telemetry import get_recorder

    with get_recorder().span(
        "scenario.run",
        cat="sweep",
        service=scenario.service,
        policy=scenario.policy,
        seed=scenario.seed,
    ):
        start = time.perf_counter()
        result = run_scenario(scenario)
        duration = time.perf_counter() - start
    return result, duration


class ExecutionBackend(ABC):
    """Strategy for evaluating a batch of cache-missing scenarios.

    Implementations must return one ``(result, duration)`` pair per input
    scenario, in input order, and must preserve the determinism contract:
    the result for a scenario is independent of batch composition,
    concurrency, and placement.
    """

    #: Short identifier used in logs, CLI output, and bench records.
    name: str = "abstract"

    @abstractmethod
    def execute(
        self, scenarios: Sequence["Scenario"]
    ) -> list[tuple["ColocationResult", float]]:
        """Evaluate ``scenarios``, returning ``(result, seconds)`` pairs."""

    def result_store(self):
        """The :class:`SweepCache` this backend already persists into.

        ``None`` for backends that only compute (the engine writes its
        own cache).  The distributed backend returns its shared cache so
        the engine can skip re-pickling results that workers just wrote.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
