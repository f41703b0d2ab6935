"""Free-zone code may import deterministic code and time it."""

import time

from repro.engine import simulate


def timed(ticks):
    start = time.perf_counter()
    return simulate(ticks), time.perf_counter() - start
