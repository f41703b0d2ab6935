"""The one entrypoint every figure, example, and CLI sweep goes through.

:func:`run_experiment` resolves the execution substrate exactly once —
explicit engine, or (backend, cache, workers) assembled into a fresh
:class:`~repro.sweep.engine.SweepEngine`, falling back to the
``REPRO_SWEEP_*`` environment — expands the spec, and returns a
:class:`~repro.experiment.resultset.ResultSet`.  Because scenario
results are a pure function of the scenario config, the choice of
backend can never change the returned bits, only the wall-clock.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.experiment.resultset import ResultSet
from repro.experiment.spec import ExperimentSpec
from repro.sweep.backends import ExecutionBackend, backend_from_env
from repro.sweep.cache import SweepCache
from repro.sweep.engine import SweepEngine
from repro.sweep.grid import Scenario
from repro.telemetry import get_recorder

Runnable = Union[ExperimentSpec, Iterable[Scenario]]


def resolve_engine(
    engine: SweepEngine | None = None,
    backend: ExecutionBackend | None = None,
    cache: SweepCache | None = None,
    workers: int | None = None,
) -> SweepEngine:
    """One engine from whichever substrate knobs the caller provided.

    An explicit ``engine`` is exclusive with the other knobs (they would
    silently be ignored — error instead).  With no knobs at all the
    ``REPRO_SWEEP_BACKEND`` environment decides, so any driver can be
    re-pointed at another substrate without code changes.
    """
    if engine is not None:
        if backend is not None or cache is not None or workers is not None:
            raise ValueError(
                "pass either engine= or backend=/cache=/workers=, not both "
                "(an explicit engine already fixes the substrate)"
            )
        return engine
    return SweepEngine(
        workers=workers,
        cache=cache,
        backend=backend if backend is not None else backend_from_env(),
    )


def run_experiment(
    spec: Runnable,
    *,
    engine: SweepEngine | None = None,
    backend: ExecutionBackend | None = None,
    cache: SweepCache | None = None,
    workers: int | None = None,
    force: bool = False,
    strategy=None,
    budget: int | None = None,
    objective=None,
    rng_seed: int | None = None,
) -> ResultSet:
    """Run an experiment spec (or raw scenarios) to a ResultSet.

    ``force`` bypasses cache *reads* (results are still written back) —
    the guaranteed-cold pass benchmarks measure.

    ``strategy`` / ``budget`` / ``objective`` / ``rng_seed`` switch from
    exhaustive expansion to a budgeted search over the spec's axes (see
    :mod:`repro.search`): points are proposed in rounds instead of
    materialized, and the returned
    :class:`~repro.search.result.SearchResult` adds trajectory /
    best-point / frontier accessors on top of the ResultSet surface.
    Passing any of them — or a spec whose own search fields say so —
    takes this path; ``strategy="grid"`` is the exhaustive reference,
    bit-identical to the plain path.
    """
    wants_search = any(
        value is not None for value in (strategy, budget, objective, rng_seed)
    ) or (isinstance(spec, ExperimentSpec) and spec.search_requested)
    if wants_search:
        # Deferred import: repro.search drives its rounds back through
        # this module's engine resolution.
        from repro.search.driver import run_search

        return run_search(
            spec,
            strategy=strategy,
            budget=budget,
            objective=objective,
            rng_seed=rng_seed,
            engine=engine,
            backend=backend,
            cache=cache,
            workers=workers,
            force=force,
        )
    resolved = resolve_engine(engine, backend, cache, workers)
    if isinstance(spec, ExperimentSpec):
        scenarios, attached = spec.scenarios(), spec
    else:
        scenarios, attached = list(spec), None
    with get_recorder().span(
        "experiment.run", cat="experiment", scenarios=len(scenarios)
    ):
        outcomes = resolved.run(scenarios, force=force)
    return ResultSet(outcomes, spec=attached)


def run_point(force: bool = False, engine: SweepEngine | None = None, **fields):
    """One scenario through :func:`run_experiment`; returns its result.

    Keyword fields are :class:`Scenario` fields — the single-point
    convenience figure drivers use for probes outside their main grid.
    """
    outcomes = run_experiment([Scenario(**fields)], engine=engine, force=force)
    return outcomes[0].result
