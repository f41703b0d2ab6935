"""Fidelity: the simulation's quality accounting against real kernel runs.

The engine reports an app's final inaccuracy as the progress-weighted mix
of the variants it executed.  These tests pin that accounting to ground
truth: running the real kernel at the ladder level Pliant actually used
must produce a quality loss consistent with the simulated report.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.cluster import ladder_for
from repro.sweep import Scenario, run_scenario


@pytest.mark.parametrize("service,app_name", [("memcached", "kmeans"), ("mongodb", "semphy")])
def test_simulated_inaccuracy_consistent_with_kernel(service, app_name):
    pliant = run_scenario(Scenario(service, app_name, seed=11))
    levels = pliant.epoch_app_levels[app_name]
    simulated = pliant.app_outcome(app_name).inaccuracy_pct

    ladder = ladder_for(app_name)
    level_inaccs = np.asarray(
        [ladder.variant(level).inaccuracy_pct for level in range(ladder.max_level + 1)]
    )
    # The simulated value must lie within the range of inaccuracies of the
    # levels the run actually used (it is a weighted mix of them, plus
    # bounded elision noise).
    used = np.unique(levels)
    lo = level_inaccs[used].min()
    hi = level_inaccs[used].max()
    assert lo - 0.01 <= simulated <= hi + 1.5

    # And the real kernel at the dominant level reproduces its measured
    # ladder inaccuracy (the exploration cache is honest).
    dominant = int(np.bincount(levels).argmax())
    app = make_app(app_name)
    variant = ladder.variant(dominant)
    measured = app.measure(variant.spec, seed=0)
    assert measured.inaccuracy_pct == pytest.approx(
        variant.inaccuracy_pct, abs=0.05
    )


def test_precise_mode_has_exactly_zero_loss():
    precise = run_scenario(Scenario("nginx", "raytrace", policy="precise", seed=11))
    assert precise.app_outcome("raytrace").inaccuracy_pct == 0.0


def test_dynrio_overhead_visible_in_finish_times():
    """Pliant's finish-time advantage must already net out instrumentation
    overhead: pinning an app at level 0 under instrumentation is slower
    than the uninstrumented precise baseline by ~the app's overhead."""
    app_name = "water_spatial"
    precise = run_scenario(Scenario("mongodb", app_name, policy="precise", seed=11))
    pinned = run_scenario(
        Scenario(
            "mongodb",
            app_name,
            policy="static-level",
            policy_kwargs={"levels": ((app_name, 0),)},
            seed=11,
        )
    )
    t_precise = precise.app_outcome(app_name).finish_time
    t_pinned = pinned.app_outcome(app_name).finish_time
    overhead = make_app(app_name).metadata.dynrio_overhead
    assert t_pinned / t_precise == pytest.approx(1.0 + overhead, abs=0.04)
