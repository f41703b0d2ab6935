"""Tail-latency contract of every interactive service.

The services' p99 is what the paper's QoS claims are about, and each
service computes it from its calibrated knee curve
(:mod:`repro.services.latency`), its Amdahl capacity model and its
interference sensitivity.  These tests pin the queueing-shaped behaviour
that model has to show for each of the three services: the tail grows
with load and with contention, shrinks with cores, crosses QoS exactly at
the knee, stays finite past saturation, and samples around its
deterministic value with request-count-dependent noise.
"""

import math

import numpy as np
import pytest

from repro.rng import generator
from repro.server.interference import PressureBreakdown
from repro.services import make_service
from repro.services.base import BacklogTracker

SERVICES = ("nginx", "memcached", "mongodb")

#: Pressure on every resource, so each service's sensitivity sees some.
SOME_PRESSURE = PressureBreakdown(0.2, 0.2, 0.2, 0.2, 0.2)

#: Far beyond anything a node produces: every service hits its ceiling.
EXTREME_PRESSURE = PressureBreakdown(10.0, 10.0, 10.0, 10.0, 10.0)


@pytest.fixture(params=SERVICES)
def svc(request):
    return make_service(request.param)


def _qps(svc, fraction, cores=8):
    return fraction * svc.saturation_qps(cores)


class TestCurveShape:
    def test_zero_load_is_base_latency(self, svc):
        assert svc.p99_at(0.0, 8) == pytest.approx(svc.curve.params.base_p99)

    def test_curve_targets_service_qos(self, svc):
        assert svc.curve.params.qos == svc.qos

    def test_qos_crossed_exactly_at_knee(self, svc):
        knee = svc.curve.params.knee_utilization
        assert svc.p99_at(_qps(svc, knee), 8) == pytest.approx(svc.qos)
        assert svc.curve.utilization_for_p99(svc.qos) == pytest.approx(knee)

    def test_latency_grows_with_load(self, svc):
        loads = np.linspace(0.05, 0.99, 40)
        tails = [svc.p99_at(_qps(svc, f), 8) for f in loads]
        assert all(b > a for a, b in zip(tails, tails[1:]))

    def test_tail_never_below_base(self, svc):
        base = svc.curve.params.base_p99
        for fraction in (0.0, 0.3, 0.7, 1.0, 3.0):
            assert svc.p99_at(_qps(svc, fraction), 8) >= base

    def test_saturated_tail_is_finite_and_violates(self, svc):
        cap = svc.curve.params.max_utilization
        saturated = svc.p99_at(_qps(svc, 2.0), 8)
        assert math.isfinite(saturated)
        assert saturated > svc.qos
        assert saturated == svc.curve.p99(cap)

    def test_mean_tracks_tail(self, svc):
        for fraction in (0.2, 0.6, 0.9):
            u = svc.utilization(_qps(svc, fraction), 8)
            ratio = svc.curve.mean(u) / svc.curve.p99(u)
            assert ratio == pytest.approx(svc.curve.params.mean_ratio)


class TestCapacity:
    def test_nominal_allocation_is_quoted_saturation(self, svc):
        qps = svc.saturation_qps(svc.nominal_cores)
        assert svc.utilization(qps, svc.nominal_cores) == pytest.approx(1.0)

    def test_more_cores_reduce_tail(self, svc):
        qps = _qps(svc, 0.6)
        tails = [svc.p99_at(qps, cores) for cores in (4, 6, 8)]
        assert tails[0] > tails[1] > tails[2]

    def test_scaleout_is_capped(self, svc):
        # The irq path bounds how far reclaimed cores stretch capacity.
        assert svc.saturation_qps(64) == svc.saturation_qps(128)
        assert svc.saturation_qps(64) > svc.saturation_qps(svc.nominal_cores)


class TestInterference:
    def test_no_pressure_is_no_inflation(self, svc):
        assert svc.sensitivity.inflation(PressureBreakdown()) == 1.0

    def test_contention_raises_tail(self, svc):
        qps = _qps(svc, 0.6)
        assert svc.p99_at(qps, 8, SOME_PRESSURE) > svc.p99_at(qps, 8)

    def test_inflation_capped(self, svc):
        inflation = svc.sensitivity.inflation(EXTREME_PRESSURE)
        assert inflation == svc.sensitivity.max_inflation

    def test_inflation_shifts_along_the_same_curve(self, svc):
        # Contention inflates service time, which is the same as running
        # the isolated service at proportionally more load.
        qps = _qps(svc, 0.5)
        inflated = svc.p99_at(qps, 8, inflation=1.2)
        assert inflated == pytest.approx(svc.p99_at(1.2 * qps, 8))


class TestSampling:
    def test_reproducible_given_draw(self, svc):
        qps = _qps(svc, 0.7)
        first = svc.sample_p99(qps, 8, SOME_PRESSURE, z=0.3, epoch=1.0)
        again = svc.sample_p99(qps, 8, SOME_PRESSURE, z=0.3, epoch=1.0)
        other = svc.sample_p99(qps, 8, SOME_PRESSURE, z=-0.3, epoch=1.0)
        assert first == again
        assert first != other

    def test_noise_has_unit_mean(self, svc):
        qps = _qps(svc, 0.7)
        zs = generator(11).standard_normal(4000)
        samples = [svc.sample_p99(qps, 8, None, z=z, epoch=1.0) for z in zs]
        assert np.mean(samples) == pytest.approx(svc.p99_at(qps, 8), rel=0.02)

    def test_short_epochs_are_noisier(self, svc):
        qps = _qps(svc, 0.7)
        zs = generator(12).standard_normal(2000)
        short = np.std([svc.sample_p99(qps, 8, None, z=z, epoch=1e-3) for z in zs])
        long = np.std([svc.sample_p99(qps, 8, None, z=z, epoch=10.0) for z in zs])
        assert short > long

    def test_backlog_penalty_adds_before_noise(self, svc):
        qps = _qps(svc, 0.7)
        penalty = svc.qos
        plain = svc.sample_p99(qps, 8, None, z=0.5, epoch=1.0)
        backed = svc.sample_p99(
            qps, 8, None, z=0.5, epoch=1.0, backlog_penalty=penalty
        )
        scale = (svc.p99_at(qps, 8) + penalty) / svc.p99_at(qps, 8)
        assert backed == pytest.approx(plain * scale)


class TestSaturationEpisode:
    def test_backlog_builds_then_drains(self, svc):
        capacity = svc.saturation_qps(8)
        tracker = BacklogTracker()
        tracker.update(1.1 * capacity, capacity, dt=1.0)
        assert tracker.backlog == pytest.approx(0.1 * capacity)
        assert tracker.penalty(capacity) == pytest.approx(0.1)
        tracker.update(0.9 * capacity, capacity, dt=0.5)
        assert tracker.backlog == pytest.approx(0.05 * capacity)
        tracker.update(0.9 * capacity, capacity, dt=1.0)
        assert tracker.backlog == 0.0
