"""Performance monitor: windows, slack, adaptive sampling."""

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.monitor import IntervalObservation, PerformanceMonitor, pairwise_sum


def edge_samples(count):
    """``count`` samples over nine decades, where the order of addition
    shows in the last bits."""
    rng = random.Random(count)
    return [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-3, 6) for _ in range(count)]


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

    def test_empty_interval_holds_the_latest_sampled_p99(self):
        # The fallback is the last sampled interval's p99, not the first,
        # and it carries through consecutive empty intervals.
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.5)
        monitor.close_interval(1.0)
        monitor.record(2.0)
        monitor.record(3.0)
        sampled = monitor.close_interval(2.0)
        empty = [monitor.close_interval(t) for t in (3.0, 4.0)]
        assert [obs.p99 for obs in empty] == [sampled.p99] * 2 == [2.5] * 2
        assert all(obs.sample_count == 0 and not obs.qos_met for obs in empty)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False),
            min_size=1,
            max_size=300,
        )
    )
    @example(edge_samples(7))
    @example(edge_samples(8))
    @example(edge_samples(9))
    @example(edge_samples(16))
    @example(edge_samples(17))
    @example(edge_samples(128))
    @example(edge_samples(129))
    @example(edge_samples(136))
    def test_interval_p99_is_np_mean_bit_for_bit(self, samples):
        # numpy's pairwise sum adds fewer than 8 values in order, up to 128
        # in eight interleaved accumulators and more than 128 as two halves
        # split at a multiple of 8; the examples sit on each of those edges.
        monitor = PerformanceMonitor(qos=1.0)
        for sample in samples:
            monitor.record(sample)
        p99 = monitor.close_interval(1.0).p99
        assert p99.hex() == float(np.mean(samples)).hex()

    @pytest.mark.parametrize("count", [1, 7, 8, 128, 129, 300])
    def test_pairwise_sum_of_signed_zeros_is_np_add_reduce(self, count):
        # numpy reduces from its identity 0.0, so zeros sum to +0.0.
        samples = [-0.0] * count
        expected = float(np.add.reduce(np.asarray(samples)))
        assert pairwise_sum(samples).hex() == expected.hex() == "0x0.0p+0"

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
