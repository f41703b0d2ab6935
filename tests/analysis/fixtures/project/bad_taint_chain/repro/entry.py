"""Deterministic entrypoint two call-edges from a wall clock."""

from repro.telemetry.util import helper


def simulate(ticks):
    return helper(ticks)
