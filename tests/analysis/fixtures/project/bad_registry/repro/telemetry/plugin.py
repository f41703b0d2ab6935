"""Free-zone plugin registered into the deterministic dispatcher."""

import time

from repro.engine import register_policy


def build():
    return time.time()


register_policy("wallclock", build)
