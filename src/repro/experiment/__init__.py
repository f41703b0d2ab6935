"""Declarative experiment API.

The evaluation is a matrix of colocation experiments; this package makes
the whole matrix data:

* :mod:`repro.experiment.spec` — :class:`ExperimentSpec`: a sweep as
  named open axes over **any** :class:`~repro.sweep.grid.Scenario`
  field (load shape, platform, slack threshold, horizon, ...), with a
  JSON round trip for the distributed CLI,
* :mod:`repro.experiment.run` — :func:`run_experiment`, the single
  entrypoint that resolves engine/backend/cache once and runs any spec,
* :mod:`repro.experiment.resultset` — :class:`ResultSet`: grid-order
  outcomes with ``filter``/``lookup``/``group_by``/``aggregate`` and
  tabular/pickled export, so figure drivers stop re-implementing
  select-and-reshape loops.

Quick tour::

    from repro.experiment import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        name="slack-sensitivity-under-diurnal-load",
        base={
            "service": "memcached",
            "apps": "canneal",
            "seed": 2,
            "loadgen_shape": "diurnal",
            "loadgen_params": {"low": 0.5, "high": 0.95, "period": 120.0},
        },
        axes={
            "slack_threshold": [0.05, 0.10, 0.20],
            "platform": ["default", "half-llc"],
        },
    )
    results = run_experiment(spec)           # serial / process / distributed
    results.aggregate("qos_ratio", by="slack_threshold")
"""

from repro.experiment.resultset import (
    METRICS,
    ResultSet,
    register_metric,
    resolve_metric,
)
from repro.experiment.run import resolve_engine, run_experiment, run_point
from repro.experiment.spec import SPEC_FORMAT, ExperimentSpec

__all__ = [
    "METRICS",
    "SPEC_FORMAT",
    "ExperimentSpec",
    "ResultSet",
    "register_metric",
    "resolve_engine",
    "resolve_metric",
    "run_experiment",
    "run_point",
]
