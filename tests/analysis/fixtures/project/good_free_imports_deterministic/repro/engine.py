"""Deterministic code that imports nothing from the free zone."""


def simulate(ticks):
    return ticks * 2
