"""Contention model: marginality, monotonicity, scaling."""

import pytest

from repro import units
from repro.server.interference import (
    InterferenceModel,
    PressureBreakdown,
    contribution,
    overload,
)
from repro.server.platform import default_platform
from repro.server.resources import ResourceProfile


@pytest.fixture()
def model():
    return InterferenceModel(default_platform())


def victim_profile():
    return ResourceProfile(
        llc_footprint_bytes=units.mb(24),
        llc_intensity=0.9,
        membw_per_core=units.gbytes_per_sec(0.2),
    )


def aggressor_profile(bw=6.0, footprint=50, intensity=0.8):
    return ResourceProfile(
        llc_footprint_bytes=units.mb(footprint),
        llc_intensity=intensity,
        membw_per_core=units.gbytes_per_sec(bw),
    )


class TestMarginality:
    def test_no_aggressors_no_pressure(self, model):
        pressure = model.pressure_on(victim_profile(), 8, [])
        assert pressure.total == pytest.approx(0.0)

    def test_idle_aggressor_no_pressure(self, model):
        pressure = model.pressure_on(
            victim_profile(), 8, [contribution(aggressor_profile(), 0)]
        )
        assert pressure.total == pytest.approx(0.0)


class TestMonotonicity:
    def test_more_aggressor_bandwidth_more_pressure(self, model):
        light = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(bw=3), 8)])
        heavy = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(bw=8), 8)])
        assert heavy.membw_linear > light.membw_linear

    def test_more_aggressor_cores_more_pressure(self, model):
        few = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(), 4)])
        many = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(), 8)])
        assert many.membw_linear > few.membw_linear
        assert many.llc > few.llc

    def test_two_aggressors_exceed_one(self, model):
        one = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(), 8)])
        two = model.pressure_on(
            victim_profile(),
            8,
            [contribution(aggressor_profile(), 4), contribution(aggressor_profile(), 4)],
        )
        # Same total cores split across two apps doubles the LLC footprints.
        assert two.llc > one.llc


class TestLLC:
    def test_victim_intensity_weights_pressure(self, model):
        hot = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(), 8)])
        cold_victim = ResourceProfile(
            llc_footprint_bytes=units.mb(24), llc_intensity=0.1
        )
        cold = model.pressure_on(cold_victim, 8, [contribution(aggressor_profile(), 8)])
        assert cold.llc < hot.llc

    def test_pollution_capped(self, model):
        huge = ResourceProfile(
            llc_footprint_bytes=units.mb(500), llc_intensity=1.0
        )
        hot_victim = ResourceProfile(llc_intensity=1.0)
        assert model.pressure_on(hot_victim, 8, [contribution(huge, 16)]).llc <= 1.5


class TestOverload:
    def test_zero_below_knee(self):
        assert overload(0.5) == 0.0

    def test_one_at_saturation(self):
        assert overload(1.0) == pytest.approx(1.0)

    def test_quadratic_shape(self):
        assert overload(0.8) == pytest.approx(0.25)

    def test_overload_pressure_appears_near_saturation(self, model):
        low = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(bw=4), 8)])
        high = model.pressure_on(victim_profile(), 8, [contribution(aggressor_profile(bw=9), 8)])
        assert low.membw_overload == pytest.approx(0.0, abs=0.01)
        assert high.membw_overload > 0.05


class TestApproximationRelief:
    def test_scaled_profile_reduces_pressure(self, model):
        precise = aggressor_profile()
        relieved = precise.scaled(traffic_factor=0.5)
        p_precise = model.pressure_on(victim_profile(), 8, [contribution(precise, 8)])
        p_relieved = model.pressure_on(victim_profile(), 8, [contribution(relieved, 8)])
        assert p_relieved.total < p_precise.total


class TestBreakdown:
    def test_total_is_sum(self):
        breakdown = PressureBreakdown(
            llc=0.1, membw_linear=0.2, membw_overload=0.05, disk=0.02, network=0.03
        )
        assert breakdown.total == pytest.approx(0.4)
