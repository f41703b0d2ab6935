"""NGINX front-end web-server model.

Paper configuration (Section 5): static 1 KB HTML files, one million unique
objects, QoS = 10 ms p99 set at the knee of the isolation latency-throughput
curve.  Load sweeps in Fig. 8 span 300K-700K QPS and precise-only mode meets
QoS up to 340K QPS = 48 % of load, putting saturation at the nominal fair
share (8 cores) near 710K QPS.

NGINX is compute- and cache-sensitive (request parsing, page cache for the
hot file set) and pushes meaningful NIC bandwidth at high load.
"""

from __future__ import annotations

from repro import units
from repro.services.base import InteractiveService, InterferenceSensitivity
from repro.services.latency import LatencyCurve, LatencyCurveParams

#: Saturation throughput at the nominal 8-core allocation.
SATURATION_QPS = 710_000.0


class Nginx(InteractiveService):
    """Front-end web server serving static 1 KB pages."""

    name = "nginx"
    llc_footprint_bytes = units.mb(18)
    llc_intensity = 0.65
    #: Effective bytes of memory traffic per request (file + headers + buffers).
    membw_bytes_per_query = 4 * units.KB
    #: Wire bytes per response (1 KB body + headers).
    wire_bytes_per_query = 1.3 * units.KB

    def __init__(self) -> None:
        super().__init__(
            curve=LatencyCurve(
                LatencyCurveParams(
                    base_p99=units.msec(1.6),
                    qos=units.msec(10),
                    max_utilization=0.990,
                )
            ),
            sensitivity=InterferenceSensitivity(
                llc=0.25,
                membw_linear=0.10,
                membw_overload=0.06,
                network=0.12,
                colocation_floor=0.145,
                presence_ref=0.15,
                max_inflation=1.275,
            ),
            saturation_qps_nominal=SATURATION_QPS,
            nominal_cores=8,
            core_scaling_fraction=0.95,
        )
