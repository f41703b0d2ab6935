"""Experiment harness: the engine builder, mix enumeration, aggregation."""

from repro.cluster.colocation import build_engine, ladder_for
from repro.cluster.metrics import ColocationSummary, ViolinStats, summarize_pair
from repro.cluster.sweeps import breakdown_outcomes, combination_mixes

__all__ = [
    "ColocationSummary",
    "ViolinStats",
    "breakdown_outcomes",
    "build_engine",
    "combination_mixes",
    "ladder_for",
    "summarize_pair",
]
