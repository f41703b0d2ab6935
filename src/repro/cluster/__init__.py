"""Experiment harness: builds colocations, runs policies, aggregates."""

from repro.cluster.colocation import (
    build_engine,
    compare_policies,
    ladder_for,
    run_colocation,
)
from repro.cluster.metrics import ColocationSummary, ViolinStats, summarize_pair
from repro.cluster.sweeps import breakdown_outcomes, combination_mixes

__all__ = [
    "ColocationSummary",
    "ViolinStats",
    "breakdown_outcomes",
    "build_engine",
    "combination_mixes",
    "compare_policies",
    "ladder_for",
    "run_colocation",
    "summarize_pair",
]
