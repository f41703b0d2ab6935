"""Free-zone class hierarchy: the clock hides in a base class."""

import time


class Base:
    def now(self):
        return time.time()


class Timer(Base):
    def read(self):
        return self.now()
