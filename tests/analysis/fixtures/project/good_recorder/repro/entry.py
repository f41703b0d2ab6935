"""Deterministic code importing only the recorder factory."""

from repro.telemetry import get_recorder


def simulate(ticks):
    get_recorder().count("simulate.calls")
    return ticks * 2
