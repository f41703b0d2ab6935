"""Deterministic module whose one free-zone import is waived."""

from repro.telemetry.deep import now  # repro-lint: ignore[free-zone-import] -- fixture waiver


def stamp(ticks):
    return ticks, now
