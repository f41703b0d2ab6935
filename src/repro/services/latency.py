"""Calibrated tail-latency surface.

The epoch-level latency model is a hyperbolic latency-vs-utilization curve,

    p99(u) = L0 + A * u / (1 - u),

the standard shape of open-loop latency-throughput curves.  ``A`` is chosen
so the curve passes through the service's QoS target exactly at the *knee*
utilization, matching the paper's QoS definition ("the 99th percentile
latency before the knee of the latency-throughput curve").  Utilization
includes interference inflation of service time, so contention shifts the
operating point to the right along the same curve — which is how a 20 %
service-time inflation becomes a multi-x tail-latency blowup near the knee.

Epoch sampling applies unit-mean lognormal noise, driven by a
standard-normal draw the caller supplies, whose magnitude shrinks with the
number of requests observed in the epoch (percentile-estimation error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyCurveParams:
    """Parameters of one service's latency curve.

    ``base_p99`` is the tail latency at near-zero load; ``qos`` the target;
    ``knee_utilization`` where the curve crosses the QoS; ``mean_ratio`` the
    (roughly constant) mean/p99 ratio; ``noise_sigma`` the lognormal sigma of
    epoch-to-epoch tail noise at high request counts.
    """

    base_p99: float
    qos: float
    knee_utilization: float = 0.875
    max_utilization: float = 0.995
    mean_ratio: float = 0.25
    noise_sigma: float = 0.06

    def __post_init__(self) -> None:
        if self.base_p99 <= 0:
            raise ValueError("base_p99 must be positive")
        if self.qos <= self.base_p99:
            raise ValueError("qos must exceed base_p99")
        if not 0.0 < self.knee_utilization < self.max_utilization < 1.0:
            raise ValueError("need 0 < knee < max_utilization < 1")


class LatencyCurve:
    """p99-vs-utilization curve with epoch sampling."""

    def __init__(self, params: LatencyCurveParams) -> None:
        self._params = params
        knee = params.knee_utilization
        self._amplitude = (params.qos - params.base_p99) * (1.0 - knee) / knee

    @property
    def params(self) -> LatencyCurveParams:
        return self._params

    def p99(self, utilization: float) -> float:
        """Deterministic tail latency at ``utilization`` (can exceed 1)."""
        if utilization < 0:
            raise ValueError("utilization must be non-negative")
        u = min(utilization, self._params.max_utilization)
        return self._params.base_p99 + self._amplitude * u / (1.0 - u)

    def mean(self, utilization: float) -> float:
        return self.p99(utilization) * self._params.mean_ratio

    def utilization_for_p99(self, target: float) -> float:
        """Inverse of :meth:`p99`: utilization at which p99 hits ``target``."""
        if target <= self._params.base_p99:
            return 0.0
        x = (target - self._params.base_p99) / self._amplitude
        return x / (1.0 + x)

    def sample_p99(
        self,
        utilization: float,
        z: float,
        requests_observed: float = 1e4,
        backlog_penalty: float = 0.0,
    ) -> float:
        """One noisy epoch observation of the tail latency.

        ``z`` is a standard-normal draw; the noise factor is lognormal with
        unit mean, ``exp(-sigma**2 / 2 + sigma * z)``, the value numpy's
        ``Generator.lognormal(-sigma**2 / 2, sigma)`` returns for the same
        underlying normal, so a caller may draw its normals in blocks.
        ``requests_observed`` controls the estimation error of the p99 (few
        samples -> noisier percentile).  ``backlog_penalty`` (seconds) adds
        queue-drain latency accumulated while the service was saturated.
        """
        base = self.p99(utilization) + backlog_penalty
        n = max(requests_observed, 10.0)
        sigma = self._params.noise_sigma * (1.0 + 30.0 / math.sqrt(n))
        return base * math.exp(-0.5 * sigma * sigma + sigma * z)
