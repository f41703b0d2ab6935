"""Baseline add / waive / expire round-trips and fingerprint stability."""

import json

import pytest

from repro.analysis import Baseline, BaselineEntry, Zone, analyze_source

BAD = "import time\n\ndef f():\n    return time.time()\n"


def findings_for(source: str):
    return analyze_source(source, "src/repro/core/runtime.py", zone=Zone.DETERMINISTIC)


class TestFingerprints:
    def test_stable_across_unrelated_edits(self):
        before = findings_for(BAD)
        shifted = findings_for('"""Docstring pushes lines down."""\n\n' + BAD)
        assert before[0].line != shifted[0].line
        assert before[0].fingerprint == shifted[0].fingerprint

    def test_duplicate_lines_fingerprint_independently(self):
        twice = BAD + "\n\ndef g():\n    return time.time()\n"
        findings = findings_for(twice)
        assert len(findings) == 2
        assert findings[0].fingerprint != findings[1].fingerprint


class TestRoundTrip:
    def test_add_waive_expire(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = findings_for(BAD)
        assert len(findings) == 1

        # Add: grandfather today's findings.
        Baseline().updated(findings, "pre-lint code").save(path)
        baseline = Baseline.load(path)
        assert len(baseline) == 1
        assert baseline.entries[0].justification == "pre-lint code"

        # Waive: the same finding no longer reports as new.
        new, waived, expired = baseline.partition(findings_for(BAD))
        assert new == [] and len(waived) == 1 and expired == []

        # Expire: fixing the code strands the entry.
        new, waived, expired = baseline.partition(findings_for("x = 1\n"))
        assert new == [] and waived == [] and len(expired) == 1

        # Update drops the stranded entry.
        baseline.updated([], "-").save(path)
        assert len(Baseline.load(path)) == 0

    def test_update_keeps_original_justifications(self, tmp_path):
        findings = findings_for(BAD)
        baseline = Baseline().updated(findings, "original reason")
        again = baseline.updated(findings_for(BAD), "new reason")
        assert again.entries[0].justification == "original reason"

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0


class TestValidation:
    def test_justification_is_mandatory_on_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        payload = {
            "version": 1,
            "entries": [
                {
                    "fingerprint": "abc",
                    "rule": "no-wallclock",
                    "path": "m.py",
                    "code": "x",
                    "justification": "   ",
                }
            ],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)

    def test_justification_is_mandatory_on_create(self):
        finding = findings_for(BAD)[0]
        with pytest.raises(ValueError, match="justification"):
            BaselineEntry.from_finding(finding, "  ")

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_corrupt_json_refused(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            Baseline.load(path)
