"""Half of an import cycle."""

from repro.telemetry.beta import pong  # noqa: F401


def ping():
    return pong()
