"""The ``python -m repro.analysis`` entrypoint: exit codes and output."""

from pathlib import Path

import pytest

from repro.analysis.cli import build_parser, main

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
    assert run("--zone", zone, str(fixture)) == 1


@pytest.mark.parametrize(
    "fixture", GOOD_FIXTURES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_good_fixtures_exit_zero(fixture):
    zone = fixture.parent.name
    assert run("--zone", zone, str(fixture)) == 0


@pytest.mark.parametrize("project", BAD_PROJECTS, ids=lambda p: p.name)
def test_bad_projects_exit_nonzero(project):
    assert run("--root", str(project), str(project)) == 1


@pytest.mark.parametrize("project", GOOD_PROJECTS, ids=lambda p: p.name)
def test_good_projects_exit_zero(project):
    assert run("--root", str(project), str(project)) == 0


def test_text_format_names_rule_and_location(capsys):
    fixture = FIXTURES / "deterministic" / "bad_wallclock.py"
    run("--zone", "deterministic", str(fixture))
    out = capsys.readouterr().out
    assert "no-wallclock" in out
    assert "bad_wallclock.py:" in out
    assert "FAILED" in out


def test_text_output_renders_the_chain(capsys):
    project = FIXTURES / "project" / "bad_taint_chain"
    run("--root", str(project), str(project))
    out = capsys.readouterr().out
    assert "chain: repro.entry.simulate (repro/entry.py:7) -> " in out


def test_summary_line_counts_findings_and_waivers(tmp_path, capsys):
    fixture = FIXTURES / "deterministic" / "bad_wallclock.py"
    assert run("--zone", "deterministic", str(fixture)) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("repro-lint: FAILED — 4 finding(s), 0 pragma-waived")

    waived = tmp_path / "waived.py"
    waived.write_text(
        "import time\n"
        "now = time.time()  # repro-lint: ignore[no-wallclock] -- test\n"
    )
    assert run("--zone", "deterministic", str(waived)) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("repro-lint: ok — 0 finding(s), 1 pragma-waived")


def test_only_paths_zone_and_root_are_accepted():
    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
    }
    assert options == {"-h", "--help", "--zone", "--root"}
