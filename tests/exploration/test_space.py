"""Variant enumeration."""

import pytest

from repro.apps import make_app
from repro.search.variants import MAX_VARIANTS, enumerate_variants


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
