"""Free-zone clock read."""

import time


def now():
    return time.time()
