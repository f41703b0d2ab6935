"""Free-zone recorder factory; the recorder reads the clock itself."""

import time


class Recorder:
    def count(self, name):
        return time.time()


def get_recorder():
    return Recorder()
