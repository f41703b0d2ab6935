"""Calibrated latency curve."""

import math

import numpy as np
import pytest

from repro.rng import generator
from repro.services.latency import LatencyCurve, LatencyCurveParams


@pytest.fixture()
def curve():
    return LatencyCurve(LatencyCurveParams(base_p99=1.0, qos=10.0))


class TestShape:
    def test_base_at_zero_load(self, curve):
        assert curve.p99(0.0) == pytest.approx(1.0)

    def test_qos_at_knee(self, curve):
        knee = curve.params.knee_utilization
        assert curve.p99(knee) == pytest.approx(10.0)

    def test_monotone(self, curve):
        grid = np.linspace(0, 0.99, 50)
        values = [curve.p99(u) for u in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_caps_at_max_utilization(self, curve):
        assert curve.p99(1.5) == curve.p99(curve.params.max_utilization)

    def test_negative_rejected(self, curve):
        with pytest.raises(ValueError):
            curve.p99(-0.1)

    def test_mean_below_p99(self, curve):
        assert curve.mean(0.5) < curve.p99(0.5)


class TestInverse:
    def test_roundtrip(self, curve):
        for u in (0.2, 0.5, 0.875, 0.95):
            assert curve.utilization_for_p99(curve.p99(u)) == pytest.approx(u)

    def test_below_base(self, curve):
        assert curve.utilization_for_p99(0.5) == 0.0


class TestSampling:
    def test_unbiased(self, curve):
        rng = generator(1)
        samples = [curve.sample_p99(0.7, z) for z in rng.standard_normal(4000)]
        assert np.mean(samples) == pytest.approx(curve.p99(0.7), rel=0.02)

    def test_fewer_requests_noisier(self, curve):
        zs = generator(2).standard_normal(2000)
        few = np.std([curve.sample_p99(0.7, z, requests_observed=20) for z in zs])
        many = np.std([curve.sample_p99(0.7, z, requests_observed=1e6) for z in zs])
        assert few > many

    def test_backlog_penalty_adds(self, curve):
        zs = generator(3).standard_normal(500)
        base = np.mean([curve.sample_p99(0.5, z) for z in zs])
        loaded = np.mean([curve.sample_p99(0.5, z, backlog_penalty=5.0) for z in zs])
        assert loaded > base + 4.0


class TestNoiseIdentity:
    """Block-drawn normals reproduce numpy's scalar samplers bit for bit.

    The engine draws its standard normals in blocks and applies the
    lognormal and normal formulas itself.  If numpy ever computes
    ``lognormal`` or ``normal`` differently, these fail before the golden
    digests do.
    """

    #: The services' epoch sigmas span ~0.05 (many requests) to ~0.6 (few);
    #: 0.35 is the elision quality sigma.
    SIGMAS = (0.0, 0.02, 0.06, 0.12, 0.35, 0.6, 1.5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    def test_lognormal_from_block(self, seed):
        # Two blocks, the engine's 256 then the rest, so the comparison crosses
        # a block boundary.
        count = 600
        for sigma in self.SIGMAS:
            mean = -0.5 * sigma * sigma
            scalar_rng = generator(seed)
            scalar = [scalar_rng.lognormal(mean=mean, sigma=sigma) for _ in range(count)]
            block_rng = generator(seed)
            zs = block_rng.standard_normal(256).tolist() + block_rng.standard_normal(
                count - 256
            ).tolist()
            assert [math.exp(mean + sigma * z) for z in zs] == scalar

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_normal_from_block(self, seed):
        for sigma in self.SIGMAS:
            scalar_rng = generator(seed)
            scalar = [scalar_rng.normal(0.0, sigma) for _ in range(300)]
            zs = generator(seed).standard_normal(300).tolist()
            assert [sigma * z for z in zs] == scalar

    def test_sample_p99_matches_scalar_lognormal(self, curve):
        # The curve's own formula against the sampler it replaced.
        for requests in (10.0, 200.0, 1e4, 1e6):
            sigma = curve.params.noise_sigma * (1.0 + 30.0 / math.sqrt(requests))
            scalar_rng, block_rng = generator(5), generator(5)
            for z in block_rng.standard_normal(300).tolist():
                expected = curve.p99(0.6) * scalar_rng.lognormal(
                    mean=-0.5 * sigma * sigma, sigma=sigma
                )
                assert curve.sample_p99(0.6, z, requests_observed=requests) == expected

    def test_engine_stream_crosses_blocks(self):
        from repro.core.runtime import _NORMAL_BLOCK, _standard_normals

        stream = _standard_normals(generator(4))
        drawn = [next(stream) for _ in range(2 * _NORMAL_BLOCK + 5)]
        scalar_rng = generator(4)
        assert drawn == [scalar_rng.standard_normal() for _ in drawn]


class TestValidation:
    def test_qos_must_exceed_base(self):
        with pytest.raises(ValueError):
            LatencyCurveParams(base_p99=10.0, qos=5.0)

    def test_knee_bounds(self):
        with pytest.raises(ValueError):
            LatencyCurveParams(base_p99=1.0, qos=10.0, knee_utilization=1.2)
        with pytest.raises(ValueError):
            LatencyCurveParams(
                base_p99=1.0, qos=10.0, knee_utilization=0.99, max_utilization=0.98
            )
