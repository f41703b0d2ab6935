"""Golden digests: the panel's results stay bit-identical.

A failure here means a change altered simulation results.  If that was
the point, re-pin with ``python scripts/pin_golden.py --reason "..."``;
if it was not, the change broke behaviour it meant to keep.
"""

import json

import pytest

from repro.sweep import run_scenario
from repro.sweep.digest import result_digest
from repro.sweep.engine import POLICY_REGISTRY
from tests.golden.panel import (
    DIGESTS_PATH,
    SCRIPTED_LABEL,
    THREE_APP_MIX,
    panel,
)

PANEL = panel()
PINNED = json.loads(DIGESTS_PATH.read_text())


def test_pin_states_a_reason():
    assert PINNED["reason"].strip()


def test_every_label_is_pinned():
    assert set(PINNED["digests"]) == set(PANEL) | {SCRIPTED_LABEL}


def test_panel_covers_every_registered_policy():
    # Other tests register throwaway policies; the panel covers the
    # ones the package itself registers.
    builtin = {
        name
        for name, builder in POLICY_REGISTRY.items()
        if builder.__module__ == "repro.sweep.engine"
    }
    assert {s.policy for s in PANEL.values()} == builtin


@pytest.mark.parametrize("label", sorted(PANEL))
def test_digest_unchanged(label):
    assert result_digest(run_scenario(PANEL[label])) == PINNED["digests"][label]


def test_three_app_mix_finishes_one_app_early():
    (scenario,) = [s for s in PANEL.values() if s.apps == THREE_APP_MIX]
    result = run_scenario(scenario)
    finishes = sorted(result.app_outcome(name).finish_time for name in THREE_APP_MIX)
    assert finishes[0] < finishes[-1] - 1.0
