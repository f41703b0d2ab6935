"""The import boundary over the miniature-project corpus.

Each directory under ``fixtures/project/`` is a miniature project whose
layout assigns the zones: files under ``repro/telemetry/`` and
``repro/viz/`` are free, the rest of ``repro/`` is deterministic.  The
bad projects hide a clock read or an unseeded draw behind each shape a
call graph would have to resolve: a call chain, a re-export, a method
inherited from a free-zone base, an import cycle and a registry that a
free-zone module fills.  The boundary needs no resolution: every shape
is one finding, on the deterministic import that reaches the free zone.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

PROJECTS = Path(__file__).parent / "fixtures" / "project"

BAD_PROJECTS = sorted(p.name for p in PROJECTS.glob("bad_*"))
GOOD_PROJECTS = sorted(p.name for p in PROJECTS.glob("good_*"))


def report_for(name: str):
    root = PROJECTS / name
    return analyze_paths([root], root=root)


class TestProjectCorpusContract:
    def test_corpus_is_present(self):
        assert set(BAD_PROJECTS) == {
            "bad_import_cycle",
            "bad_reexport",
            "bad_registry",
            "bad_registry_strategy",
            "bad_self_method",
            "bad_taint_chain",
            "bad_taint_rng",
        }
        assert set(GOOD_PROJECTS) == {
            "good_free_imports_deterministic",
            "good_import_pragma",
            "good_recorder",
        }

    @pytest.mark.parametrize("name", BAD_PROJECTS)
    def test_every_bad_project_fails(self, name):
        assert report_for(name).findings, f"{name} produced no findings"

    @pytest.mark.parametrize("name", GOOD_PROJECTS)
    def test_every_good_project_is_clean(self, name):
        findings = report_for(name).findings
        assert not findings, [f.message for f in findings]


#: project -> (path, line, the free-zone name the finding names)
BOUNDARY = {
    # Two calls from the clock; the import of the first is the finding.
    "bad_taint_chain": ("repro/entry.py", 3, "repro.telemetry.util.helper"),
    "bad_taint_rng": ("repro/entry.py", 3, "repro.viz.noise.jitter"),
    # get_recorder on the same line is allowed; the re-exported name is not.
    "bad_reexport": ("repro/entry.py", 3, "repro.telemetry.now_alias"),
    "bad_self_method": ("repro/core/stamp.py", 3, "repro.telemetry.timer.Timer"),
    # A plain ``import ... as``: the cycle behind it is never followed.
    "bad_import_cycle": ("repro/entry.py", 3, "repro.telemetry.alpha"),
    # A registry fills only when its plugin is imported: a function-local
    # import here, a relative one from a package ``__init__`` below.
    "bad_registry": ("repro/engine.py", 11, "repro.telemetry.plugin"),
    "bad_registry_strategy": (
        "repro/search/__init__.py",
        14,
        "repro.telemetry.strategies",
    ),
}


class TestBoundaryShapes:
    def test_every_bad_project_has_an_expectation(self):
        assert set(BOUNDARY) == set(BAD_PROJECTS)

    @pytest.mark.parametrize("name", sorted(BOUNDARY))
    def test_one_finding_on_the_deterministic_import(self, name):
        path, line, target = BOUNDARY[name]
        (finding,) = report_for(name).findings
        assert (finding.rule, finding.path, finding.line) == (
            "free-zone-import",
            path,
            line,
        )
        assert finding.message.startswith(f"{target} is free-zone code")

    def test_pragma_on_the_import_waives_it(self):
        report = report_for("good_import_pragma")
        assert report.findings == []
        assert report.suppressed == 1
