"""Free-zone strategy registered into the deterministic dispatcher."""

import time

from repro.search import register_strategy


def build():
    return time.time()


register_strategy("wallclock", build)
