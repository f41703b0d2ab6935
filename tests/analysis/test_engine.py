"""The analyzer pass itself: file discovery, report paths, ordering and
waiver accounting."""

from pathlib import Path

import pytest

from repro.analysis import Zone, analyze_paths
from repro.analysis import engine
from repro.analysis.cli import main
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rulebase import ALL_ZONES
from repro.analysis.rules import FILE_RULES

FIXTURES = Path(__file__).parent / "fixtures"

WALLCLOCK = "import time\n\ndef f():\n    return time.time()\n"


def finding(path="a.py", line=1, col=0, rule="no-wallclock"):
    return Finding(rule=rule, path=path, line=line, col=col, message="m", code="c")


class TestFindings:
    def test_sort_orders_by_path_line_col_then_rule(self):
        expected = [
            finding("a.py", 1, 0, "no-wallclock"),
            finding("a.py", 1, 0, "seeded-rng"),
            finding("a.py", 1, 4),
            finding("a.py", 2, 0),
            finding("b.py", 1, 0),
        ]
        shuffled = [expected[i] for i in (3, 4, 1, 0, 2)]
        assert sort_findings(shuffled) == expected
        assert shuffled[0] == expected[3]  # the input is left alone

    def test_sort_accepts_any_iterable(self):
        items = [finding(line=2), finding(line=1)]
        assert sort_findings(iter(items)) == items[::-1]

    def test_location(self):
        assert finding("src/x.py", 7, 3).location == "src/x.py:7:3"


class TestRuleSet:
    def test_every_file_rule_runs_somewhere(self):
        for rule in FILE_RULES:
            assert rule.zones, rule.id
            assert rule.zones <= ALL_ZONES, rule.id


class TestFileDiscovery:
    def test_walks_directories_skips_caches_and_non_python(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        found = engine.iter_python_files(
            [tmp_path / "pkg", tmp_path / "notes.txt", tmp_path / "pkg" / "a.py"]
        )
        assert found == [tmp_path / "pkg" / "a.py", tmp_path / "pkg" / "b.py"]


class TestAnalyzePaths:
    def test_paths_are_reported_relative_to_root(self, tmp_path):
        target = tmp_path / "sub" / "offender.py"
        target.parent.mkdir()
        target.write_text(WALLCLOCK)
        report = analyze_paths([target], root=tmp_path, zone=Zone.DETERMINISTIC)
        assert [f.location for f in report.findings] == ["sub/offender.py:4:11"]

    def test_file_outside_root_keeps_the_given_path(self, tmp_path):
        target = tmp_path / "offender.py"
        target.write_text(WALLCLOCK)
        elsewhere = tmp_path / "other"
        elsewhere.mkdir()
        report = analyze_paths([target], root=elsewhere, zone=Zone.DETERMINISTIC)
        assert [f.path for f in report.findings] == [target.as_posix()]

    def test_zone_comes_from_the_path_unless_forced(self, tmp_path):
        target = tmp_path / "repro" / "core" / "clock.py"
        target.parent.mkdir(parents=True)
        target.write_text(WALLCLOCK)
        inferred = analyze_paths([target], root=tmp_path)
        assert [f.rule for f in inferred.findings] == ["no-wallclock"]
        forced = analyze_paths([target], root=tmp_path, zone=Zone.FREE)
        assert forced.findings == []

    def test_parse_error_is_a_finding_and_the_scan_goes_on(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "offender.py").write_text(WALLCLOCK)
        report = analyze_paths([tmp_path], root=tmp_path, zone=Zone.DETERMINISTIC)
        assert report.files_scanned == 2
        assert [(f.path, f.rule) for f in report.findings] == [
            ("broken.py", "parse-error"),
            ("offender.py", "no-wallclock"),
        ]

    def test_waived_findings_are_counted_not_reported(self, tmp_path):
        (tmp_path / "waived.py").write_text(
            "import time\n"
            "a = time.time()  # repro-lint: ignore[no-wallclock] -- test\n"
            "b = time.time()  # repro-lint: ignore[seeded-rng, no-wallclock] -- test\n"
            "c = time.time()  # repro-lint: ignore[seeded-rng] -- wrong rule\n"
        )
        report = analyze_paths([tmp_path], root=tmp_path, zone=Zone.DETERMINISTIC)
        assert report.suppressed == 2
        assert [f.line for f in report.findings] == [4]

    def test_inline_pragma_does_not_waive_the_line_below(self, tmp_path):
        (tmp_path / "x.py").write_text(
            "import time\n"
            "a = time.time()  # repro-lint: ignore[no-wallclock] -- test\n"
            "b = time.time()\n"
        )
        report = analyze_paths([tmp_path], root=tmp_path, zone=Zone.DETERMINISTIC)
        assert report.suppressed == 1
        assert [(f.rule, f.line) for f in report.findings] == [("no-wallclock", 3)]

    def test_bare_comment_pragma_waives_the_line_below(self, tmp_path):
        (tmp_path / "x.py").write_text(
            "import time\n"
            "# repro-lint: ignore[no-wallclock] -- test\n"
            "a = time.time()\n"
            "b = (1,\n"
            "     # repro-lint: ignore[no-wallclock] -- test\n"
            "     time.time())\n"
            "c = time.time()\n"
        )
        report = analyze_paths([tmp_path], root=tmp_path, zone=Zone.DETERMINISTIC)
        assert report.suppressed == 2
        assert [(f.rule, f.line) for f in report.findings] == [("no-wallclock", 7)]


class TestCliUsage:
    def test_no_paths_and_no_default_roots_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "none of the default roots exist" in capsys.readouterr().err

    def test_unknown_zone_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--zone", "nowhere", str(FIXTURES)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_default_roots_are_scanned_from_the_cwd(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "tool.py").write_text(WALLCLOCK)
        monkeypatch.chdir(tmp_path)
        assert main([]) == 0  # scripts/ is a free zone: clocks are allowed
        last = capsys.readouterr().out.splitlines()[-1]
        assert "0 finding(s), 0 pragma-waived, 1 file(s) scanned" in last
