"""No sweepable axis is a silent no-op.

Every :class:`Scenario` field can be an ``ExperimentSpec`` axis, so each
one must reach the code it names: for every field but the two that pick
the experiment itself (``service``, ``apps``), some non-default value
changes the result digest of a short memcached+canneal run.  A field
copied somewhere the engine and policy never read fails here.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.sweep import Scenario, run_scenario
from repro.sweep.digest import result_digest

BASE = Scenario(service="memcached", apps=("canneal",), horizon=40.0)

DIURNAL = {
    "loadgen_shape": "diurnal",
    "loadgen_params": (("low", 0.5), ("high", 1.0), ("period", 20.0)),
}

#: Per field: (overrides of the reference run, overrides of the variant).
#: The two differ in that field; loadgen parameters only act under a
#: shape that reads them.
VARIANTS = {
    "policy": ({}, {"policy": "precise"}),
    "policy_kwargs": ({}, {"policy_kwargs": (("min_backoff", 1),)}),
    "load_fraction": ({}, {"load_fraction": 0.6}),
    "decision_interval": ({}, {"decision_interval": 2.0}),
    "monitor_epoch": ({}, {"monitor_epoch": 0.05}),
    "slack_threshold": ({}, {"slack_threshold": 0.4}),
    "horizon": ({}, {"horizon": 30.0}),
    "seed": ({}, {"seed": 9}),
    "stop_when_apps_done": ({}, {"stop_when_apps_done": False}),
    "exploration_seed": ({}, {"exploration_seed": 1}),
    "loadgen_shape": ({}, DIURNAL),
    "loadgen_params": (
        DIURNAL,
        {**DIURNAL, "loadgen_params": (("low", 0.3), ("high", 0.9), ("period", 20.0))},
    ),
    "platform": ({}, {"platform": "half-llc"}),
}

SWEEPABLE = [
    f.name for f in dataclasses.fields(Scenario) if f.name not in ("service", "apps")
]


@lru_cache(maxsize=None)
def _digest(scenario: Scenario) -> str:
    return result_digest(run_scenario(scenario))


@pytest.mark.parametrize("field", SWEEPABLE)
def test_field_moves_the_result(field):
    assert field in VARIANTS, f"add a (reference, variant) pair for Scenario.{field}"
    reference, variant = (
        dataclasses.replace(BASE, **overrides) for overrides in VARIANTS[field]
    )
    assert getattr(reference, field) != getattr(variant, field)
    assert _digest(reference) != _digest(variant)


@pytest.mark.parametrize("policy", ["pliant", "pliant-impact", "core-reclaim-only"])
def test_slack_threshold_moves_every_slack_driven_policy(policy):
    digests = {
        _digest(dataclasses.replace(BASE, policy=policy, slack_threshold=threshold))
        for threshold in (0.02, 0.10, 0.40)
    }
    assert len(digests) == 3
