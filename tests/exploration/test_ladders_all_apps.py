"""Ladder contract for every one of the 24 applications.

Uses the on-disk exploration cache, so after the first run these are cheap.
"""

import pytest

from repro.apps import ALL_APP_NAMES, make_app
from repro.search.ladder import FRONTIER_TOLERANCE


@pytest.mark.parametrize("name", ALL_APP_NAMES)
class TestLadderContract:
    def test_has_approximate_levels(self, name, ladder_cache):
        ladder = ladder_cache(name)
        assert 1 <= ladder.max_level <= 8

    def test_level_zero_precise(self, name, ladder_cache):
        ladder = ladder_cache(name)
        level0 = ladder.variant(0)
        assert level0.is_precise
        assert level0.time_factor == 1.0

    def test_inaccuracy_monotone_nondecreasing(self, name, ladder_cache):
        ladder = ladder_cache(name)
        inaccs = [ladder.variant(i).inaccuracy_pct for i in range(ladder.max_level + 1)]
        assert inaccs == sorted(inaccs)

    def test_all_levels_within_budget(self, name, ladder_cache):
        ladder = ladder_cache(name)
        for level in range(ladder.max_level + 1):
            assert ladder.variant(level).inaccuracy_pct <= 5.0

    def test_top_level_offers_benefit(self, name, ladder_cache):
        ladder = ladder_cache(name)
        top = ladder.variant(ladder.max_level)
        # The most approximate variant must be meaningfully faster or
        # meaningfully decontending — otherwise escalating to it is useless.
        assert top.time_factor < 0.97 or top.traffic_rate_factor < 0.95

    def test_specs_resolvable_by_app(self, name, ladder_cache):
        ladder = ladder_cache(name)
        app = make_app(name)
        for level in range(ladder.max_level + 1):
            settings = app.materialize(ladder.variant(level).spec)
            assert set(settings) == set(app.knobs())

    def test_levels_belong_to_app(self, name, ladder_cache):
        ladder = ladder_cache(name)
        assert ladder.app_name == name
        assert {level.app_name for level in ladder.levels} == {name}

    def test_levels_are_distinct_operating_points(self, name, ladder_cache):
        ladder = ladder_cache(name)
        points = [
            (
                round(level.inaccuracy_pct, 3),
                round(level.time_factor, 3),
                round(level.traffic_rate_factor, 3),
            )
            for level in ladder.levels
        ]
        assert len(set(points)) == len(points)
        assert len(set(level.spec for level in ladder.levels)) == len(points)

    def test_every_level_earns_its_slot(self, name, ladder_cache):
        # Each approximate level sits on the time or the contention
        # frontier, so it beats precise by more than the frontier tolerance
        # on at least one of the two axes.
        ladder = ladder_cache(name)
        threshold = 1.0 - FRONTIER_TOLERANCE
        for level in ladder.levels[1:]:
            assert (
                level.time_factor < threshold
                or level.traffic_rate_factor < threshold
            )

    def test_no_level_slows_the_app(self, name, ladder_cache):
        ladder = ladder_cache(name)
        assert max(level.time_factor for level in ladder.levels) == 1.0

    def test_no_level_grows_the_footprint(self, name, ladder_cache):
        ladder = ladder_cache(name)
        assert all(0.0 < level.footprint_factor <= 1.0 for level in ladder.levels)


class TestPaperArchetypes:
    """The Section 6.1 behavioral archetypes, at ladder level."""

    def test_canneal_never_decontends(self, ladder_cache):
        # "Insubstantial" contention relief (paper 6.1): nothing close to
        # SNP's elision-driven 0.2-0.3 rates.
        ladder = ladder_cache("canneal")
        rates = [ladder.variant(i).traffic_rate_factor for i in range(1, ladder.max_level + 1)]
        assert min(rates) > 0.8

    def test_snp_has_a_strong_decontender(self, ladder_cache):
        ladder = ladder_cache("snp")
        rates = [ladder.variant(i).traffic_rate_factor for i in range(1, ladder.max_level + 1)]
        assert min(rates) < 0.35

    def test_water_spatial_is_vertical(self, ladder_cache):
        ladder = ladder_cache("water_spatial")
        times = [ladder.variant(i).time_factor for i in range(1, ladder.max_level + 1)]
        assert min(times) > 0.85
