"""Free-zone helper in the middle of the chain."""

from repro.telemetry.deep import now


def helper(ticks):
    return now() + ticks
