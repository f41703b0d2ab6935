"""Pareto selection, the approximation ladder, and the ladder contract
of every one of the 24 applications.

The per-app checks use the on-disk exploration cache, so after the first
run they are cheap.
"""

import pytest

from repro.apps import ALL_APP_NAMES, make_app
from repro.apps.base import MeasuredVariant, VariantSpec
from repro.search.ladder import FRONTIER_TOLERANCE, ApproxLadder, pareto_select


def mv(inacc, tf, rate=1.0, name="app", knob="k", value=None):
    value = value if value is not None else (inacc, tf, rate)
    return MeasuredVariant(
        app_name=name,
        spec=VariantSpec({knob: value}),
        inaccuracy_pct=inacc,
        time_factor=tf,
        traffic_rate_factor=rate,
        footprint_factor=1.0,
    )


def precise(name="app"):
    return MeasuredVariant(
        app_name=name,
        spec=VariantSpec(),
        inaccuracy_pct=0.0,
        time_factor=1.0,
        traffic_rate_factor=1.0,
        footprint_factor=1.0,
    )


class TestParetoSelect:
    def test_empty(self):
        assert pareto_select([]) == []

    def test_inadmissible_filtered(self):
        variants = [mv(6.0, 0.5), mv(10.0, 0.3)]
        assert pareto_select(variants, max_inaccuracy_pct=5.0) == []

    def test_dominated_dropped(self):
        good = mv(1.0, 0.5)
        dominated = mv(2.0, 0.9)  # slower AND less accurate
        selected = pareto_select([good, dominated])
        assert good in selected
        assert dominated not in selected

    def test_frontier_kept_in_inaccuracy_order(self):
        variants = [mv(3.0, 0.4), mv(1.0, 0.8), mv(2.0, 0.6)]
        selected = pareto_select(variants)
        inaccs = [v.inaccuracy_pct for v in selected]
        assert inaccs == sorted(inaccs)

    def test_contention_frontier_also_selects(self):
        # Slow but strongly decontending (sync elision): must survive even
        # though the time frontier dominates it.
        fast = mv(1.0, 0.5, rate=1.0)
        decontender = mv(2.0, 0.9, rate=0.2)
        selected = pareto_select([fast, decontender])
        assert decontender in selected

    def test_tie_prefers_lower_contention(self):
        a = mv(1.0, 0.5, rate=1.0, knob="a")
        b = mv(1.0, 0.5, rate=0.5, knob="b")
        selected = pareto_select([a, b])
        rates = [v.traffic_rate_factor for v in selected]
        assert 0.5 in rates
        assert 1.0 not in rates

    def test_cap_respected(self):
        variants = [mv(0.1 * i, 1.0 - 0.05 * i) for i in range(1, 20)]
        selected = pareto_select(variants, max_selected=8)
        assert len(selected) <= 8

    def test_cap_keeps_endpoints(self):
        variants = [mv(0.1 * i, 1.0 - 0.05 * i) for i in range(1, 20)]
        selected = pareto_select(variants, max_selected=8)
        assert selected[0].inaccuracy_pct == pytest.approx(0.1)
        assert selected[-1].inaccuracy_pct == pytest.approx(1.9)

    def test_precise_never_selected(self):
        selected = pareto_select([precise(), mv(1.0, 0.5)])
        assert all(not v.is_precise for v in selected)


class TestApproxLadder:
    def test_level_zero_is_precise(self):
        ladder = ApproxLadder.from_selection(precise(), [mv(1.0, 0.5)])
        assert ladder.variant(0).is_precise
        assert ladder.max_level == 1

    def test_levels_ordered_by_inaccuracy(self):
        ladder = ApproxLadder.from_selection(
            precise(), [mv(3.0, 0.3), mv(1.0, 0.7), mv(2.0, 0.5)]
        )
        inaccs = [ladder.variant(i).inaccuracy_pct for i in range(4)]
        assert inaccs == sorted(inaccs)

    def test_out_of_range_level(self):
        ladder = ApproxLadder.from_selection(precise(), [mv(1.0, 0.5)])
        with pytest.raises(IndexError):
            ladder.variant(2)
        with pytest.raises(IndexError):
            ladder.variant(-1)

    def test_requires_precise_level_zero(self):
        with pytest.raises(ValueError):
            ApproxLadder(app_name="x", levels=[mv(1.0, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ApproxLadder(app_name="x", levels=[])

    def test_approximate_count(self):
        ladder = ApproxLadder.from_selection(precise(), [mv(1.0, 0.5), mv(2.0, 0.4)])
        assert ladder.approximate_count == 2


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
