"""Performance monitor: windows, slack, adaptive sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.monitor import IntervalObservation, PerformanceMonitor


class TestObservation:
    def test_qos_met(self):
        obs = IntervalObservation(time=1.0, p99=0.8, qos=1.0, sample_count=10)
        assert obs.qos_met
        assert obs.slack == pytest.approx(0.2)
        assert obs.ratio == pytest.approx(0.8)

    def test_violation(self):
        obs = IntervalObservation(time=1.0, p99=2.0, qos=1.0, sample_count=10)
        assert not obs.qos_met
        assert obs.slack == pytest.approx(-1.0)


class TestMonitor:
    def test_interval_aggregation(self):
        monitor = PerformanceMonitor(qos=1.0)
        for value in (0.5, 1.5, 1.0):
            monitor.record(value)
        obs = monitor.close_interval(time=1.0)
        assert obs.p99 == pytest.approx(1.0)
        assert obs.sample_count == 3

    def test_window_resets(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(5.0)
        monitor.close_interval(1.0)
        monitor.record(1.0)
        obs = monitor.close_interval(2.0)
        assert obs.p99 == pytest.approx(1.0)

    def test_empty_interval_reuses_last(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.7)
        first = monitor.close_interval(1.0)
        second = monitor.close_interval(2.0)
        assert second.p99 == first.p99
        assert second.sample_count == 0

    def test_history(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.5)
        monitor.close_interval(1.0)
        monitor.record(2.0)
        monitor.close_interval(2.0)
        assert len(monitor.history) == 2
        assert monitor.qos_met_fraction() == pytest.approx(0.5)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_interval_p99_is_np_mean_bit_for_bit(self, samples):
        # From 8 samples on, numpy's pairwise sum adds in another order
        # than a left-to-right sum does.
        monitor = PerformanceMonitor(qos=1.0)
        for sample in samples:
            monitor.record(sample)
        p99 = monitor.close_interval(1.0).p99
        assert p99.hex() == float(np.mean(samples)).hex()

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            PerformanceMonitor(qos=1.0).record(-1.0)

    def test_rejects_bad_qos(self):
        with pytest.raises(ValueError):
            PerformanceMonitor(qos=0.0)


class TestAdaptiveSampling:
    def test_near_boundary_samples_every_epoch(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.95)  # slack 0.05 -> near boundary
        monitor.close_interval(1.0)
        assert all(monitor.should_sample(i) for i in range(10))

    def test_far_from_boundary_backs_off(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.1)  # slack 0.9 -> far
        monitor.close_interval(1.0)
        sampled = [monitor.should_sample(i) for i in range(10)]
        assert not all(sampled)
        assert any(sampled)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("p99", [0.1, 0.74, 0.75, 0.95, 1.25, 1.26, 3.0])
    def test_every_epoch_rule_agrees_with_should_sample(self, adaptive, p99):
        monitor = PerformanceMonitor(qos=1.0, adaptive=adaptive)
        monitor.record(p99)
        monitor.close_interval(1.0)
        sampled = [monitor.should_sample(i) for i in range(10)]
        if monitor.samples_every_epoch:
            assert all(sampled)
        else:
            assert sampled == [i % 2 == 0 for i in range(10)]

    def test_non_adaptive_always_samples(self):
        monitor = PerformanceMonitor(qos=1.0, adaptive=False)
        monitor.record(0.1)
        monitor.close_interval(1.0)
        assert all(monitor.should_sample(i) for i in range(10))
