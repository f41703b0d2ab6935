"""Variant enumeration, the design-space explorer (exploration,
selection, caching) and the gprof-style work profiler behind its hints.

The ladder cache's own contract (code fingerprint, hits and misses) is
in ``test_ladder_cache.py``; every app's ladder in ``test_ladder.py``.
"""

import json

import pytest

from repro.apps import make_app
from repro.search.profiler import WorkProfiler
from repro.search.variants import MAX_VARIANTS, DesignSpaceExplorer, enumerate_variants


class TestEnumeration:
    def test_excludes_all_precise_point(self, kmeans_app):
        specs = enumerate_variants(kmeans_app)
        assert all(len(spec) > 0 for spec in specs)

    def test_count_matches_grid(self, raytrace_app):
        # raytrace: reflection has 2 candidates (+precise), shadows 1 (+precise)
        # => 3*2 - 1 non-precise combos.
        specs = enumerate_variants(raytrace_app)
        assert len(specs) == 5

    def test_unique(self, kmeans_app):
        specs = enumerate_variants(kmeans_app)
        assert len(set(specs)) == len(specs)

    def test_single_knob_variants_present(self, kmeans_app):
        specs = enumerate_variants(kmeans_app)
        singles = [s for s in specs if len(s) == 1]
        assert len(singles) >= 3

    def test_cap_respected(self):
        app = make_app("bayesian")
        specs = enumerate_variants(app, max_variants=10)
        assert len(specs) <= 10

    def test_cap_keeps_spread(self):
        app = make_app("bayesian")
        full = enumerate_variants(app)
        capped = enumerate_variants(app, max_variants=10)
        # Subsample must include specs from across the full grid.
        assert capped[0] == full[0]
        assert len(set(capped)) == len(capped)

    def test_empty_knobs(self, kmeans_app):
        assert enumerate_variants(kmeans_app, knobs={}) == []

    def test_default_cap(self):
        for name in ("bayesian", "plsa", "svmrfe"):
            assert len(enumerate_variants(make_app(name))) <= MAX_VARIANTS

    def test_values_come_from_knobs(self, kmeans_app):
        knobs = kmeans_app.knobs()
        for spec in enumerate_variants(kmeans_app):
            for key, value in spec.items():
                assert value in knobs[key].candidates


@pytest.fixture()
def explorer(tmp_path, kmeans_app):
    return DesignSpaceExplorer(kmeans_app, seed=0, cache_dir=tmp_path)


class TestExplore:
    def test_all_variants_measured(self, explorer, kmeans_app):
        result = explorer.explore()
        assert len(result.all_variants) == len(enumerate_variants(kmeans_app))

    def test_selected_subset_of_all(self, explorer):
        result = explorer.explore()
        all_specs = {v.spec for v in result.all_variants}
        assert all(v.spec in all_specs for v in result.selected)


class TestCaching:
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


class TestProfile:
    def test_shares_in_range(self, kmeans_app):
        profiles = WorkProfiler(kmeans_app).profile()
        assert all(0.0 <= p.work_share <= 1.0 for p in profiles)

    def test_sorted_hottest_first(self, kmeans_app):
        profiles = WorkProfiler(kmeans_app).profile()
        shares = [p.work_share for p in profiles]
        assert shares == sorted(shares, reverse=True)

    def test_covers_all_knobs(self, kmeans_app):
        profiles = WorkProfiler(kmeans_app).profile()
        assert {p.knob_name for p in profiles} == set(kmeans_app.knobs())

    def test_kmeans_hot_loop_is_points(self, kmeans_app):
        # The assignment scan dominates k-means; the profiler must find it.
        hottest = WorkProfiler(kmeans_app).profile()[0]
        assert hottest.knob_name in ("perforate_points", "perforate_iters")


class TestHotSites:
    def test_max_sites_cap(self):
        app = make_app("plsa")
        sites = WorkProfiler(app).hot_sites(max_sites=2)
        assert len(sites) == 2

    def test_returns_knob_objects(self, kmeans_app):
        # Two of kmeans' three knobs: the hottest, in profile order.
        profiler = WorkProfiler(kmeans_app)
        sites = profiler.hot_sites(max_sites=2)
        assert list(sites) == [site.knob_name for site in profiler.profile()[:2]]
        knobs = kmeans_app.knobs()
        for name, knob in sites.items():
            assert knob == knobs[name]
