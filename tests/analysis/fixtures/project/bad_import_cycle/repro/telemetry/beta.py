"""Other half of the cycle: imports straight back into alpha."""

import time

from repro.telemetry.alpha import ping  # noqa: F401  (cycle on purpose)


def pong():
    return time.time()
