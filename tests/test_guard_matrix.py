"""The rows of ``scripts/guard_matrix.py`` against the current tree.

The matrix itself runs every guard on a planted copy of the repository
and takes minutes, so it is not part of the test suite.  These tests
keep it runnable and its lint column honest: every row still plants
into the current sources, the planted files still parse, repro-lint
reports on them the rules the committed table names, and the script
still reads the rule ids out of repro-lint's text output.
"""

import ast
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.cli import main as lint_main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "guard_matrix.py"
_spec = importlib.util.spec_from_file_location("guard_matrix", SCRIPT)
matrix = importlib.util.module_from_spec(_spec)
sys.modules.setdefault(_spec.name, matrix)  # dataclasses look it up
_spec.loader.exec_module(matrix)

#: The lint column of the table: the rules repro-lint reports per row.
LINT = {
    "clean": set(),
    "deterministic": {"no-wallclock"},
    "feeds-nothing": {"no-wallclock"},
    "free-call": {"free-zone-import"},
    "free-reexport": {"free-zone-import"},
    "free-base-method": {"free-zone-import"},
    # Enters through the allowed get_recorder import: only the dynamic
    # guards see it.
    "free-registry": set(),
    "app-bioperf": {"seeded-rng"},
    "app-minebench": {"seeded-rng"},
    "app-parsec": {"seeded-rng"},
}

PLANTED = [row for row in matrix.ROWS if row.edits]


def edited(row) -> list[str]:
    return sorted({relpath for relpath, _, _ in row.edits})


def planted(row, tree: Path) -> Path:
    """Copy the files ``row`` edits into ``tree`` and plant the row."""
    for relpath in edited(row):
        (tree / relpath).parent.mkdir(parents=True, exist_ok=True)
        if (ROOT / relpath).exists():
            shutil.copy2(ROOT / relpath, tree / relpath)
    matrix.plant(tree, row)
    return tree


def test_every_row_has_a_lint_expectation():
    assert set(LINT) == {row.name for row in matrix.ROWS}


def test_only_the_clean_row_plants_nothing():
    assert [row.name for row in matrix.ROWS if not row.edits] == ["clean"]


def test_every_copied_path_exists():
    for name in matrix.TREE:
        assert (ROOT / name).exists(), name


@pytest.mark.parametrize("row", PLANTED, ids=lambda row: row.name)
def test_row_plants_into_the_current_tree(row, tmp_path):
    tree = planted(row, tmp_path)
    for relpath in edited(row):
        ast.parse((tree / relpath).read_text(), filename=relpath)


@pytest.mark.parametrize("row", matrix.ROWS, ids=lambda row: row.name)
def test_lint_reports_the_tabled_rules(row, tmp_path):
    tree = planted(row, tmp_path)
    rules = {
        finding.rule
        for relpath in edited(row)
        for finding in analyze_source((tree / relpath).read_text(), relpath)
    }
    assert rules == LINT[row.name]


def test_a_missing_anchor_stops_the_row(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    row = matrix.Row("r", "anchor gone", (("m.py", "y = 2\n", "y = 3\n"),))
    with pytest.raises(SystemExit, match="anchor not found once"):
        matrix.plant(tmp_path, row)


def test_an_empty_anchor_writes_a_new_file(tmp_path):
    row = matrix.Row("r", "new file", (("m.py", "", "x = 1\n"),))
    matrix.plant(tmp_path, row)
    assert (tmp_path / "m.py").read_text() == "x = 1\n"


def test_an_empty_anchor_appends_to_an_existing_file(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    row = matrix.Row("r", "append", (("m.py", "", "y = 2\n"),))
    matrix.plant(tmp_path, row)
    assert (tmp_path / "m.py").read_text() == "x = 1\ny = 2\n"


def test_finding_pattern_reads_the_cli_output(capsys):
    fixture = ROOT / "tests" / "analysis" / "fixtures" / "deterministic" / "bad_rng.py"
    assert lint_main(["--zone", "deterministic", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert set(matrix._FINDING.findall(out)) == {"seeded-rng"}
