"""The golden-digest panel: colocations whose results are pinned bit for bit.

``tests/golden/digests.json`` maps every label below to the
:func:`repro.sweep.digest.result_digest` of its result.  A change meant
to keep behaviour must keep every digest; a change meant to alter
results re-pins with ``python scripts/pin_golden.py --reason "..."``
and says why in the same change.

The panel spans the Fig. 5 pairs of ``test_headline_results.py`` under
both policies, every loadgen shape, every platform, every registered
policy, a three-app mix in which one app finishes while the others still
run, and a scripted policy that switches a level, reclaims a core and
returns it under a step load.
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster import build_engine
from repro.core.policy import RuntimePolicy
from repro.core.runtime import ColocationConfig, ColocationResult
from repro.sweep import Scenario, run_scenario

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The seed of the headline Fig. 5 checks.
SEED = 7

#: The Fig. 5 pairs asserted in ``tests/integration/test_headline_results.py``.
FIG5_PAIRS = (
    ("nginx", "canneal"),
    ("nginx", "bayesian"),
    ("nginx", "kmeans"),
    ("nginx", "water_spatial"),
    ("memcached", "canneal"),
    ("memcached", "snp"),
    ("memcached", "plsa"),
    ("memcached", "raytrace"),
    ("mongodb", "canneal"),
    ("mongodb", "snp"),
    ("mongodb", "streamcluster"),
    ("mongodb", "hmmer"),
)

#: One declarative spec per loadgen shape; QPS values are fractions of
#: saturation at the service's fair-share cores.
LOADGENS = {
    "constant": (("fraction", 0.6),),
    "step": (("steps", ((0.0, 0.5), (20.0, 0.9), (40.0, 0.6))),),
    "diurnal": (("low", 0.4), ("high", 1.0), ("period", 30.0)),
    "bursty": (("base", 0.5), ("burst", 0.95), ("period", 10.0), ("duration", 2.0)),
}

#: The mix the remaining registered policies run on: two apps, so the
#: impact-aware arbiter has a choice to make.
TWO_APP_MIX = ("kmeans", "raytrace")

#: A three-app mix whose apps finish at different times.
THREE_APP_MIX = ("kmeans", "semphy", "raytrace")

#: The scripted run's step load and the app its policy drives.
SCRIPTED_LOAD = ("step", (("steps", ((0.0, 0.5), (3.0, 0.9))),))
SCRIPTED_APP = "kmeans"
SCRIPTED_LABEL = "scripted/memcached+kmeans/step"


def panel() -> dict[str, Scenario]:
    """Every registered-policy scenario of the panel, keyed by label."""
    scenarios = [
        Scenario(service=service, apps=(app,), policy=policy, seed=SEED)
        for service, app in FIG5_PAIRS
        for policy in ("precise", "pliant")
    ]
    scenarios += [
        Scenario(
            service="memcached",
            apps=("kmeans",),
            seed=SEED,
            horizon=60.0,
            loadgen_shape=shape,
            loadgen_params=params,
        )
        for shape, params in LOADGENS.items()
    ]
    scenarios += [
        Scenario(service="memcached", apps=("bayesian",), seed=SEED, platform=platform)
        for platform in ("default", "half-llc", "ddr4-3200")
    ]
    policy_kwargs = {"static-level": (("levels", ((TWO_APP_MIX[0], 1),)),)}
    scenarios += [
        Scenario(
            service="memcached",
            apps=TWO_APP_MIX,
            policy=policy,
            policy_kwargs=policy_kwargs.get(policy, ()),
            seed=SEED,
        )
        for policy in ("pliant", "pliant-impact", "static-most-approx", "static-level", "core-reclaim-only")
    ]
    scenarios.append(Scenario(service="memcached", apps=THREE_APP_MIX, seed=SEED))
    return {scenario.label(): scenario for scenario in scenarios}


class ScriptedPolicy(RuntimePolicy):
    """Switch a level, reclaim a core, return it, switch back: one per interval."""

    requires_instrumentation = True
    name = "scripted"

    def __init__(self) -> None:
        self._interval = 0

    def on_interval(self, obs, actuator) -> None:
        self._interval += 1
        if self._interval == 2:
            actuator.set_level(SCRIPTED_APP, actuator.max_level(SCRIPTED_APP))
        elif self._interval == 4:
            actuator.reclaim_core(SCRIPTED_APP)
        elif self._interval == 6:
            actuator.return_core(SCRIPTED_APP)
        elif self._interval == 8:
            actuator.set_level(SCRIPTED_APP, 0)


def scripted_result() -> ColocationResult:
    """The scripted policy's run on a step load."""
    engine = build_engine(
        "memcached",
        [SCRIPTED_APP],
        ScriptedPolicy(),
        config=ColocationConfig(seed=SEED, horizon=12.0),
        loadgen_spec=SCRIPTED_LOAD,
    )
    return engine.run()


def run_panel() -> dict[str, ColocationResult]:
    """Every panel result, keyed by label, the scripted run included."""
    results = {label: run_scenario(scenario) for label, scenario in panel().items()}
    results[SCRIPTED_LABEL] = scripted_result()
    return results
