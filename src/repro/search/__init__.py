"""Budgeted search over design spaces.

Pliant's contribution is navigating a huge approximation-knob x
colocation design space; this package turns that from a grid-size
problem into a search problem.  Two layers share one Pareto toolkit:

* **Scenario search** — :func:`run_search` drives a pluggable
  :class:`SearchStrategy` (``grid`` / ``random`` / ``halving`` /
  ``pareto``) in batched rounds through the existing
  :class:`~repro.sweep.engine.SweepEngine`, so proposals run on any
  backend unchanged and every evaluated point lands in the
  content-addressed :class:`~repro.sweep.cache.SweepCache` — killing
  and restarting a search resumes for free, and re-running with a
  larger budget only pays for new points.  The usual entrypoint is
  ``run_experiment(spec, strategy=..., budget=N)``, which returns a
  :class:`SearchResult` (a ResultSet plus trajectory / best-point /
  frontier accessors).
* **Variant exploration** — the paper's Section 3 per-app design-space
  exploration (:class:`DesignSpaceExplorer`, :class:`ApproxLadder`,
  :func:`pareto_select`), the original budgeted search this subsystem
  grew out of.
"""

import importlib

from repro.search.frontier import dominates, pareto_indices, tolerance_frontier
from repro.search.ladder import ApproxLadder, pareto_select
from repro.search.profiler import SiteProfile, WorkProfiler
from repro.search.variants import (
    DesignSpaceExplorer,
    ExplorationResult,
    enumerate_variants,
)

#: The scenario-search layer resolves lazily (PEP 562): it reaches into
#: :mod:`repro.experiment`, whose import chain itself pulls the ladder
#: from this package — eager imports here would be a cycle.
_LAZY = {
    "run_search": "repro.search.driver",
    "DEFAULT_OBJECTIVE": "repro.search.objective",
    "Objective": "repro.search.objective",
    "parse_objective": "repro.search.objective",
    "resolve_objectives": "repro.search.objective",
    "RoundRecord": "repro.search.result",
    "SearchHistory": "repro.search.result",
    "SearchResult": "repro.search.result",
    "DesignSpace": "repro.search.space",
    "STRATEGIES": "repro.search.strategies",
    "GridStrategy": "repro.search.strategies",
    "ParetoGuided": "repro.search.strategies",
    "RandomStrategy": "repro.search.strategies",
    "SearchStrategy": "repro.search.strategies",
    "SuccessiveHalving": "repro.search.strategies",
    "register_strategy": "repro.search.strategies",
    "resolve_strategy": "repro.search.strategies",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "DEFAULT_OBJECTIVE",
    "STRATEGIES",
    "ApproxLadder",
    "DesignSpace",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "GridStrategy",
    "Objective",
    "ParetoGuided",
    "RandomStrategy",
    "RoundRecord",
    "SearchHistory",
    "SearchResult",
    "SearchStrategy",
    "SiteProfile",
    "SuccessiveHalving",
    "WorkProfiler",
    "dominates",
    "enumerate_variants",
    "pareto_indices",
    "pareto_select",
    "parse_objective",
    "register_strategy",
    "resolve_objectives",
    "resolve_strategy",
    "run_search",
    "tolerance_frontier",
]
