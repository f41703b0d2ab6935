"""Deterministic subclass reaching a clock through method resolution."""

from repro.telemetry.timer import Timer


class Stamp(Timer):
    def value(self):
        return self.read()
