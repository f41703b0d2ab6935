"""Golden digests: the panel's results stay bit-identical.

A failure here means a change altered simulation results.  If that was
the point, re-pin with ``python scripts/pin_golden.py --reason "..."``;
if it was not, the change broke behaviour it meant to keep.
"""

import json

import pytest

from repro import telemetry
from repro.sweep import run_scenario
from repro.sweep.digest import result_digest
from repro.sweep.engine import POLICY_REGISTRY
from tests.golden.panel import (
    DIGESTS_PATH,
    SCRIPTED_LABEL,
    THREE_APP_MIX,
    panel,
    run_panel,
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


def test_digests_unchanged_with_telemetry_on(monkeypatch, tmp_path):
    # The engine times its phases only when the recorder is on.
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    telemetry.reset_recorder()
    try:
        results = run_panel()
        phases = telemetry.get_recorder().snapshot()["hists"]["runtime.policy_phase_s"]
    finally:
        telemetry.reset_recorder()
    assert phases["count"] == sum(len(result.intervals) for result in results.values())
    assert {label: result_digest(r) for label, r in results.items()} == PINNED["digests"]


def test_three_app_mix_finishes_one_app_early():
    scenarios = [s for s in PANEL.values() if s.apps == THREE_APP_MIX]
    assert len(scenarios) == 2  # constant and diurnal load
    for scenario in scenarios:
        result = run_scenario(scenario)
        finishes = sorted(result.app_outcome(name).finish_time for name in THREE_APP_MIX)
        assert finishes[0] < finishes[-1] - 1.0, scenario.label()
