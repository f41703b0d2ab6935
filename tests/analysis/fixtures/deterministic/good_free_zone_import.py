"""Good fixture: the imports a deterministic module may make.

The recorder factory is the one free-zone name allowed.  Deterministic
and distributed modules, the standard library and numpy are fine, at
module level or inside a function.
"""

import numpy as np

import repro.core.runtime
from repro import units
from repro.sweep.backends import SerialBackend
from repro.telemetry import get_recorder


def run(scenarios):
    from repro.sweep.engine import SweepEngine

    with get_recorder().span("fixture.run", cat="fixture"):
        engine = SweepEngine(workers=1, backend=SerialBackend())
        return engine.run(scenarios), np.float64(units.MSEC), repro.core.runtime
