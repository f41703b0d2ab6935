"""Cross-file rules over the project fixture corpus.

Each directory under ``fixtures/project/`` is a miniature project whose
internal layout assigns the zones: files under ``repro/`` are
deterministic (``repro/sweep/backends/`` distributed), files under
``lib/`` are free.  The tests pin the *exact* rendered taint chain for
each call-graph shape — a resolution regression shows up as a chain
diff, not just a changed count.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

PROJECTS = Path(__file__).parent / "fixtures" / "project"

BAD_PROJECTS = sorted(p.name for p in PROJECTS.glob("bad_*"))
GOOD_PROJECTS = sorted(p.name for p in PROJECTS.glob("good_*"))


def findings_for(name: str):
    root = PROJECTS / name
    return analyze_paths([root], root=root).findings


class TestProjectCorpusContract:
    def test_corpus_is_present(self):
        assert {
            "bad_taint_chain",
            "bad_taint_rng",
            "bad_reexport",
            "bad_self_method",
            "bad_registry",
            "bad_registry_strategy",
            "bad_import_cycle",
        } <= set(BAD_PROJECTS)
        assert "good_taint_pragma" in GOOD_PROJECTS

    @pytest.mark.parametrize("name", BAD_PROJECTS)
    def test_every_bad_project_fails(self, name):
        assert findings_for(name), f"{name} produced no findings"

    @pytest.mark.parametrize("name", GOOD_PROJECTS)
    def test_every_good_project_is_clean(self, name):
        findings = findings_for(name)
        assert not findings, [f.message for f in findings]


class TestTransitiveTaint:
    def test_wallclock_two_call_edges_from_the_boundary(self):
        # The acceptance fixture: the clock read is two call-edges away
        # from the deterministic entrypoint.
        findings = findings_for("bad_taint_chain")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "transitive-wallclock"
        assert (finding.path, finding.line) == ("repro/entry.py", 6)
        assert finding.code == "def simulate(ticks):"
        assert finding.render_chain() == (
            "repro.entry.simulate (repro/entry.py:7) -> "
            "lib.util.helper (lib/util.py:7) -> "
            "lib.deep.now (lib/deep.py:7) -> "
            "time.time (lib/deep.py:7)"
        )
        # boundary + two intermediate functions + the source itself.
        assert len(finding.chain) == 4
        assert "time.time" in finding.message

    def test_rng_taint_through_free_helper(self):
        findings = findings_for("bad_taint_rng")
        assert [f.rule for f in findings] == ["transitive-rng"]
        assert findings[0].render_chain() == (
            "repro.entry.plan (repro/entry.py:7) -> "
            "lib.noise.jitter (lib/noise.py:7) -> "
            "random.random (lib/noise.py:7)"
        )

    def test_chain_findings_are_deterministic(self):
        first = findings_for("bad_taint_chain")
        assert first
        assert findings_for("bad_taint_chain") == first

    def test_pragma_on_the_source_kills_the_whole_chain(self):
        assert findings_for("good_taint_pragma") == []


class TestCallGraphShapes:
    def test_reexport_resolves_to_the_implementation(self):
        # ``from lib.impl import now as now_alias`` — the chain lands on
        # the defining module; the facade does not appear as a hop.
        findings = findings_for("bad_reexport")
        assert [f.rule for f in findings] == ["transitive-wallclock"]
        chain = findings[0].render_chain()
        assert chain == (
            "repro.entry.run (repro/entry.py:7) -> "
            "lib.impl.now (lib/impl.py:7) -> "
            "time.time (lib/impl.py:7)"
        )
        assert "lib.api" not in chain

    def test_method_resolution_through_self_and_bases(self):
        # ``Timer().read()`` resolves to the method, and ``self.now()``
        # walks up to the base class that defines it.
        findings = findings_for("bad_self_method")
        assert [f.rule for f in findings] == ["transitive-wallclock"]
        assert findings[0].render_chain() == (
            "repro.entry.run (repro/entry.py:7) -> "
            "lib.timer.reading (lib/timer.py:17) -> "
            "lib.timer.Timer.read (lib/timer.py:13) -> "
            "lib.timer.Base.now (lib/timer.py:8) -> "
            "time.time (lib/timer.py:8)"
        )

    def test_registry_indirection_reaches_registered_targets(self):
        # The dispatcher never names the plugin; the edge comes from the
        # registry: it reads POLICY_REGISTRY, the plugin registered into
        # it.  Every deterministic function touching the registry is a
        # boundary, so the registrar and module body are flagged too.
        findings = findings_for("bad_registry")
        assert {f.rule for f in findings} == {"transitive-wallclock"}
        by_boundary = {f.chain[0][0]: f for f in findings}
        assert "repro.engine.make" in by_boundary
        assert by_boundary["repro.engine.make"].render_chain() == (
            "repro.engine.make (repro/engine.py:10) -> "
            "lib.plugin.build (lib/plugin.py:9) -> "
            "time.time (lib/plugin.py:9)"
        )

    def test_strategy_table_reaches_registered_strategies(self):
        # The same indirection through the repo's real spelling of the
        # strategy table, ``STRATEGIES``.
        findings = findings_for("bad_registry_strategy")
        assert [f.chain[0][0] for f in findings] == [
            "repro.search.<module>",
            "repro.search.register_strategy",
            "repro.search.resolve",
        ]
        assert findings[-1].render_chain() == (
            "repro.search.resolve (repro/search.py:10) -> "
            "lib.plugin.build (lib/plugin.py:9) -> "
            "time.time (lib/plugin.py:9)"
        )

    def test_import_cycle_terminates_and_still_resolves(self):
        # alpha and beta import each other, and ``broken`` is a pure
        # re-export cycle with no definition: resolution must neither
        # hang nor invent an edge for it.
        findings = findings_for("bad_import_cycle")
        assert [f.rule for f in findings] == ["transitive-wallclock"]
        assert findings[0].render_chain() == (
            "repro.entry.run (repro/entry.py:7) -> "
            "lib.alpha.ping (lib/alpha.py:7) -> "
            "lib.beta.pong (lib/beta.py:9) -> "
            "time.time (lib/beta.py:9)"
        )
