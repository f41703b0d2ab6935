"""repro-lint must pass on this repository itself.

This is the dogfood gate: every invariant the analyzer enforces is an
invariant this codebase claims to uphold.  A new violation anywhere in
``src``/``benchmarks``/``examples``/``scripts`` fails here (and in
``make lint``) until it is fixed or waived by a justified pragma.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import FILE_RULES, analyze_paths, iter_python_files
from repro.analysis.cli import DEFAULT_ROOTS

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_report():
    roots = [REPO_ROOT / root for root in DEFAULT_ROOTS if (REPO_ROOT / root).exists()]
    assert roots, "repo layout changed: no default roots found"
    return analyze_paths(roots, root=REPO_ROOT)


def test_exactly_the_six_rules_ship():
    # Five per-file invariants plus the deterministic zone's import
    # boundary, which stands in for tracing calls across files.
    assert {rule.id for rule in FILE_RULES} == {
        "no-wallclock",
        "seeded-rng",
        "lease-clock",
        "serialization-safety",
        "telemetry-side-channel",
        "free-zone-import",
    }


def test_repo_is_clean(repo_report):
    assert repo_report.findings == [], "findings:\n" + "\n".join(
        f"  {f.location}: {f.rule}: {f.message}" for f in repo_report.findings
    )


def test_every_pragma_is_justified():
    # A pragma is the only waiver, so it must say why: ``-- reason``.
    roots = [REPO_ROOT / root for root in DEFAULT_ROOTS]
    unjustified = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}"
        for path in iter_python_files(root for root in roots if root.exists())
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "repro-lint: ignore[" in line
        and not re.search(r"ignore\[[^\]]*\]\s*--\s*\S", line)
    ]
    assert unjustified == []


def test_scan_covers_the_whole_tree(repo_report):
    # A scan that silently skips most of src/ would pass vacuously.
    assert repo_report.files_scanned > 100
