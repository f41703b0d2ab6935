"""Implementation module with the actual clock read."""

import time


def now():
    return time.time()
