"""Deterministic caller of a re-exported clock helper."""

from repro.telemetry import get_recorder, now_alias


def run():
    get_recorder()
    return now_alias()
