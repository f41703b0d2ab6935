"""DesignSpaceExplorer: exploration, selection, caching."""

import json

import pytest

from repro.apps import make_app
from repro.search.variants import DesignSpaceExplorer


@pytest.fixture()
def explorer(tmp_path, kmeans_app):
    return DesignSpaceExplorer(kmeans_app, seed=0, cache_dir=tmp_path)


class TestExplore:
    def test_produces_ladder(self, explorer):
        result = explorer.explore()
        assert result.ladder.max_level >= 1
        assert result.ladder.variant(0).is_precise

    def test_selected_within_budget(self, explorer):
        result = explorer.explore()
        assert all(v.inaccuracy_pct <= 5.0 for v in result.selected)

    def test_all_variants_measured(self, explorer, kmeans_app):
        from repro.search.variants import enumerate_variants

        result = explorer.explore()
        assert len(result.all_variants) == len(enumerate_variants(kmeans_app))

    def test_selected_subset_of_all(self, explorer):
        result = explorer.explore()
        all_specs = {v.spec for v in result.all_variants}
        assert all(v.spec in all_specs for v in result.selected)


class TestCaching:
    def test_cache_file_created(self, explorer, tmp_path):
        explorer.explore()
        assert list(tmp_path.glob("*.json"))

    def test_cache_roundtrip(self, tmp_path, kmeans_app):
        first = DesignSpaceExplorer(kmeans_app, seed=0, cache_dir=tmp_path).explore()
        second = DesignSpaceExplorer(kmeans_app, seed=0, cache_dir=tmp_path).explore()
        assert len(first.all_variants) == len(second.all_variants)
        for a, b in zip(first.all_variants, second.all_variants):
            assert a.spec == b.spec
            assert a.inaccuracy_pct == pytest.approx(b.inaccuracy_pct)
            assert a.time_factor == pytest.approx(b.time_factor)

    def test_force_re_measures(self, explorer, tmp_path):
        explorer.explore()
        cache_file = next(tmp_path.glob("*.json"))
        cache_file.write_text(json.dumps([]))  # corrupt the cache
        result = explorer.explore(force=True)
        assert len(result.all_variants) > 0

    def test_cache_key_depends_on_seed(self, tmp_path, kmeans_app):
        DesignSpaceExplorer(kmeans_app, seed=0, cache_dir=tmp_path).explore()
        DesignSpaceExplorer(kmeans_app, seed=1, cache_dir=tmp_path).explore()
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestProfilerPath:
    def test_profiler_hints_restrict_grid(self, tmp_path):
        app = make_app("plsa")
        full = DesignSpaceExplorer(app, seed=0, cache_dir=tmp_path).explore()
        app2 = make_app("plsa")
        pruned = DesignSpaceExplorer(
            app2, seed=0, cache_dir=tmp_path, use_profiler_hints=True
        ).explore()
        assert len(pruned.all_variants) <= len(full.all_variants)
        assert pruned.ladder.max_level >= 1
