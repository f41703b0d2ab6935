"""The ladder cache honours "same config *and* same code", and reports itself.

A ladder is keyed by the app, seed, threshold, knob grid and a
fingerprint of the code that measures it (:data:`LADDER_SOURCES`).  An
edit to that code must miss; an unchanged tree must hit, and a warm load
must not pay for the fingerprint again.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import telemetry
from repro.apps import ApproximableApp, make_app
from repro.cas import source_digest
from repro.cluster import colocation
from repro.search import variants
from repro.search.variants import LADDER_SOURCES, DesignSpaceExplorer
from repro.telemetry.recorder import Recorder

APP = "raytrace"


def _explorer(cache_dir: Path) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(make_app(APP), seed=0, cache_dir=cache_dir)


@pytest.fixture()
def measures(monkeypatch):
    """Counts variant measurements, i.e. cache misses doing real work."""
    calls = []
    original = ApproximableApp.measure

    def measure(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ApproximableApp, "measure", measure)
    return calls


def test_unchanged_fingerprint_hits(tmp_path, measures):
    cold = _explorer(tmp_path).explore()
    measured = len(measures)
    assert measured == len(cold.all_variants)
    warm = _explorer(tmp_path).explore()
    assert len(measures) == measured
    assert warm.all_variants == cold.all_variants


def test_changed_fingerprint_misses(tmp_path, measures, monkeypatch):
    _explorer(tmp_path).explore()
    measured = len(measures)
    monkeypatch.setattr(variants, "ladder_code_fingerprint", lambda: "0" * 16)
    _explorer(tmp_path).explore()
    assert len(measures) == 2 * measured
    assert len(list(tmp_path.glob(f"{APP}-*.json"))) == 2


def test_key_carries_the_code_fingerprint(tmp_path):
    path = _explorer(tmp_path)._cache_path()
    assert path.stem.endswith(f"-c{variants.ladder_code_fingerprint()}")


def test_warm_ladder_for_reads_no_source(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXPLORATION_CACHE", str(tmp_path))
    colocation.ladder_for.cache_clear()
    cold = colocation.ladder_for(APP)
    colocation.ladder_for.cache_clear()
    read_bytes = Path.read_bytes

    def no_source(path):
        if path.suffix == ".py":
            raise AssertionError(f"warm ladder load read {path}")
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", no_source)
    try:
        assert colocation.ladder_for(APP) == cold
    finally:
        colocation.ladder_for.cache_clear()


def _tree(root: Path) -> None:
    for name in ("apps/kernel.py", "search/explore.py", "rng.py", "units.py", "core/policy.py"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(f"# {name}\n")


@pytest.mark.parametrize("name", ["apps/kernel.py", "search/explore.py", "rng.py", "units.py"])
def test_ladder_sources_change_the_digest(tmp_path, name):
    _tree(tmp_path)
    before = source_digest(tmp_path, LADDER_SOURCES)
    (tmp_path / name).write_text("# edited\n")
    assert source_digest(tmp_path, LADDER_SOURCES) != before


def test_other_sources_leave_the_digest(tmp_path):
    _tree(tmp_path)
    before = source_digest(tmp_path, LADDER_SOURCES)
    (tmp_path / "core/policy.py").write_text("# edited\n")
    assert source_digest(tmp_path, LADDER_SOURCES) == before


@pytest.fixture()
def recorder():
    ticks = iter(range(1_000_000))
    live = Recorder(clock=lambda: float(next(ticks)))
    telemetry.set_recorder(live)
    yield live
    telemetry.reset_recorder()


def test_explore_records_span_and_cache_outcome(tmp_path, recorder):
    _explorer(tmp_path).explore()
    _explorer(tmp_path).explore()
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["search.ladder_cache.miss"] == 1
    assert snapshot["counters"]["search.ladder_cache.hit"] == 1
    spans = [s for s in recorder.to_payload()["span_records"] if s["name"] == "search.explore"]
    assert [s["args"] for s in spans] == [{"app": APP}, {"app": APP}]
