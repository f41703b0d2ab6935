"""Deterministic caller through a cyclic import pair."""

import repro.telemetry.alpha as alpha


def run():
    return alpha.ping()
