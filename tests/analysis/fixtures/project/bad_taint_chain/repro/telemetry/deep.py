"""Free-zone leaf that reads the wall clock."""

import time


def now():
    return time.time()
