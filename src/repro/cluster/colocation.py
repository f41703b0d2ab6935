"""The colocation engine builder.

:func:`build_engine` turns a :class:`~repro.sweep.grid.Scenario` into a
:class:`repro.core.runtime.ColocationEngine`: the service, its apps (with
ladders from the cached design-space exploration), the named policy,
platform and load.  Every scenario run goes through it
(:func:`repro.sweep.engine.run_scenario`); a test that needs an object a
scenario cannot name constructs the engine itself.
"""

from __future__ import annotations

from functools import lru_cache

from repro.apps import make_app
from repro.core.runtime import ColocationEngine
from repro.search.ladder import ApproxLadder
from repro.search.variants import DesignSpaceExplorer
from repro.server.platform import make_platform
from repro.services import make_service
from repro.services.loadgen import loadgen_from_spec
from repro.sweep.grid import Scenario
from repro.sweep.policies import make_policy


@lru_cache(maxsize=64)
def ladder_for(app_name: str, seed: int = 0) -> ApproxLadder:
    """The (cached) approximation ladder of one app."""
    app = make_app(app_name)
    return DesignSpaceExplorer(app, seed=seed).explore().ladder


def build_engine(scenario: Scenario) -> ColocationEngine:
    """The engine ``scenario`` describes, built but not yet run.

    A shaped load's QPS-valued parameters are fractions of the service's
    saturation at its nominal fair-share core count (see
    :func:`repro.services.loadgen.loadgen_from_spec`).
    """
    policy = make_policy(scenario)
    service = make_service(scenario.service)
    platform = make_platform(scenario.platform)
    apps = [
        (make_app(name), ladder_for(name, seed=scenario.exploration_seed))
        for name in scenario.apps
    ]
    loadgen = None
    if not scenario.has_default_loadgen():
        nominal_cores = platform.fair_share(1 + len(apps))[0]
        loadgen = loadgen_from_spec(
            scenario.loadgen_shape,
            scenario.loadgen_params,
            service.saturation_qps(nominal_cores),
        )
    return ColocationEngine(
        service=service,
        apps=apps,
        policy=policy,
        config=scenario.config(),
        platform=platform,
        loadgen=loadgen,
    )
