"""memcached in-memory key-value store model.

Paper configuration (Section 5): 5 million items, 30 B keys / 200 B values,
QoS = 200 us p99.  Fig. 8 sweeps 300K-600K QPS and precise-only mode meets
QoS up to 280K QPS = 46 % of load, putting saturation near 610K QPS at the
nominal 8-core allocation.

memcached is the most interference-sensitive of the three services: its
service times are a few tens of microseconds, so every extra cache miss and
every bit of memory-controller queueing lands directly on the tail.  The
paper finds it almost always needs at least one reclaimed core in addition
to approximation.
"""

from __future__ import annotations

from repro import units
from repro.services.base import InteractiveService, InterferenceSensitivity
from repro.services.latency import LatencyCurve, LatencyCurveParams

#: Saturation throughput at the nominal 8-core allocation.
SATURATION_QPS = 610_000.0


class Memcached(InteractiveService):
    """In-memory object cache with microsecond-scale service times."""

    name = "memcached"
    llc_footprint_bytes = units.mb(24)
    llc_intensity = 0.90
    #: Effective memory bytes touched per operation (item + hash probe + stack).
    membw_bytes_per_query = 2 * units.KB
    #: Wire bytes per response (230 B item + protocol overhead).
    wire_bytes_per_query = 0.4 * units.KB

    def __init__(self) -> None:
        super().__init__(
            curve=LatencyCurve(
                LatencyCurveParams(
                    base_p99=units.usec(70),
                    qos=units.usec(200),
                    noise_sigma=0.08,
                    max_utilization=0.973,
                )
            ),
            sensitivity=InterferenceSensitivity(
                llc=0.20,
                membw_linear=0.09,
                membw_overload=0.04,
                network=0.05,
                colocation_floor=0.155,
                presence_ref=0.055,
                max_inflation=1.26,
            ),
            saturation_qps_nominal=SATURATION_QPS,
            nominal_cores=8,
            core_scaling_fraction=0.90,
        )
