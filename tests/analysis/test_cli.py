"""The ``python -m repro.analysis`` entrypoint: exit codes and formats."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

BAD_FIXTURES = sorted(FIXTURES.glob("*/bad_*.py"))
GOOD_FIXTURES = sorted(FIXTURES.glob("*/good_*.py"))

BAD_PROJECTS = sorted(FIXTURES.glob("project/bad_*"))
GOOD_PROJECTS = sorted(FIXTURES.glob("project/good_*"))


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.mark.parametrize(
    "fixture", BAD_FIXTURES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_bad_fixtures_exit_nonzero(fixture):
    zone = fixture.parent.name
    assert run("--no-baseline", "--zone", zone, str(fixture)) == 1


@pytest.mark.parametrize(
    "fixture", GOOD_FIXTURES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_good_fixtures_exit_zero(fixture):
    zone = fixture.parent.name
    assert run("--no-baseline", "--zone", zone, str(fixture)) == 0


@pytest.mark.parametrize("project", BAD_PROJECTS, ids=lambda p: p.name)
def test_bad_projects_exit_nonzero(project):
    assert (
        run(
            "--no-baseline",
            "--root",
            str(project),
            str(project),
        )
        == 1
    )


@pytest.mark.parametrize("project", GOOD_PROJECTS, ids=lambda p: p.name)
def test_good_projects_exit_zero(project):
    assert (
        run(
            "--no-baseline",
            "--root",
            str(project),
            str(project),
        )
        == 0
    )


def test_json_format_is_machine_readable(capsys):
    fixture = FIXTURES / "deterministic" / "bad_wallclock.py"
    code = run(
        "--no-baseline",
        "--zone",
        "deterministic",
        "--format",
        "json",
        str(fixture),
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["files_scanned"] == 1
    assert len(payload["findings"]) == 4
    assert {f["rule"] for f in payload["findings"]} == {"no-wallclock"}
    assert all(f["fingerprint"] for f in payload["findings"])


def test_text_format_names_rule_and_location(capsys):
    fixture = FIXTURES / "deterministic" / "bad_wallclock.py"
    run("--no-baseline", "--zone", "deterministic", str(fixture))
    out = capsys.readouterr().out
    assert "no-wallclock" in out
    assert "bad_wallclock.py:" in out
    assert "FAILED" in out


def test_list_rules(capsys):
    assert run("--list-rules") == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "lease-clock",
        "no-wallclock",
        "seeded-rng",
        "serialization-safety",
        "telemetry-side-channel",
        "transitive-rng",
        "transitive-wallclock",
    ]
    # Cross-file rules are marked with the project scope, not a zone.
    assert re.search(r"transitive-wallclock\s+\[project\]", out)


def test_text_output_renders_the_chain(capsys):
    project = FIXTURES / "project" / "bad_taint_chain"
    run("--no-baseline", "--root", str(project), str(project))
    out = capsys.readouterr().out
    assert "chain: repro.entry.simulate (repro/entry.py:7) -> " in out


def test_json_output_reports_timing(capsys):
    project = FIXTURES / "project" / "good_taint_pragma"
    assert (
        run(
            "--no-baseline",
            "--format",
            "json",
            "--root",
            str(project),
            str(project),
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["wall_time_s"] >= 0


def test_zone_of(capsys):
    assert run("--zone-of", "src/repro/sweep/backends/distributed.py") == 0
    assert capsys.readouterr().out.strip() == "distributed"
    assert run("--zone-of", "src/repro/sim/events.py") == 0
    assert capsys.readouterr().out.strip() == "deterministic"


def test_update_baseline_then_strict_clean(tmp_path, capsys):
    target = tmp_path / "offender.py"
    target.write_text("import time\n\ndef f():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"

    # Without a baseline the file fails.
    assert (
        run("--zone", "deterministic", "--baseline", str(baseline), str(target))
        == 1
    )

    # Grandfathering requires a justification...
    with pytest.raises(SystemExit) as excinfo:
        run(
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            "--update-baseline",
            str(target),
        )
    assert excinfo.value.code == 2
    capsys.readouterr()

    # ...and with one, a strict re-run is clean.
    assert (
        run(
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            "--update-baseline",
            "--justification",
            "fixture debt",
            str(target),
        )
        == 0
    )
    assert (
        run(
            "--strict",
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            str(target),
        )
        == 0
    )

    # Fixing the code expires the entry: strict fails, plain does not.
    target.write_text("x = 1\n")
    assert (
        run(
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            str(target),
        )
        == 0
    )
    assert (
        run(
            "--strict",
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            str(target),
        )
        == 1
    )

    # --update-baseline drops the stale entry; strict is clean again.
    assert (
        run(
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            "--update-baseline",
            str(target),
        )
        == 0
    )
    assert (
        run(
            "--strict",
            "--zone",
            "deterministic",
            "--baseline",
            str(baseline),
            str(target),
        )
        == 0
    )


def test_update_baseline_conflicts_with_no_baseline(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("--update-baseline", "--no-baseline")
    assert excinfo.value.code == 2


def test_corrupt_baseline_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json")
    assert run("--baseline", str(baseline), str(target)) == 2
    assert "not valid JSON" in capsys.readouterr().err
