"""repro-lint must pass on this repository itself.

This is the dogfood gate: every invariant the analyzer enforces is an
invariant this codebase claims to uphold.  A new violation anywhere in
``src``/``benchmarks``/``examples``/``scripts`` fails here (and in
``make lint``) until it is fixed, pragma'd, or baselined with a
justification.
"""

from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths, registered_rules
from repro.analysis.baseline import DEFAULT_BASELINE_NAME
from repro.analysis.cli import DEFAULT_ROOTS

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_report():
    roots = [REPO_ROOT / root for root in DEFAULT_ROOTS if (REPO_ROOT / root).exists()]
    assert roots, "repo layout changed: no default roots found"
    return analyze_paths(roots, root=REPO_ROOT)


def test_at_least_nine_rules_ship(repo_report):
    # Six per-file rules plus the three project-scoped (interprocedural)
    # rules: transitive-wallclock/-rng, spec-schema-drift.
    assert len(registered_rules()) >= 9
    assert {
        "transitive-wallclock",
        "transitive-rng",
        "spec-schema-drift",
    } <= set(registered_rules())


def test_repo_is_clean_modulo_baseline(repo_report):
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    new, _waived, expired = baseline.partition(repo_report.findings)
    assert new == [], "unbaselined findings:\n" + "\n".join(
        f"  {f.location}: {f.rule}: {f.message}" for f in new
    )
    assert expired == [], "stale baseline entries:\n" + "\n".join(
        f"  {e.path}: {e.fingerprint} ({e.rule})" for e in expired
    )


def test_every_baselined_finding_is_justified(repo_report):
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    for entry in baseline.entries:
        assert entry.justification.strip(), entry.fingerprint


def test_scan_covers_the_whole_tree(repo_report):
    # A scan that silently skips most of src/ would pass vacuously.
    assert repo_report.files_scanned > 100
