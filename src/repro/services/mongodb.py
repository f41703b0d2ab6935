"""MongoDB persistent NoSQL database model.

Paper configuration (Section 5): 160 million records x 10 fields x 100 B,
178 GB dataset on a 7200 RPM disk, QoS = 100 ms p99.  Fig. 8 sweeps 100-400
QPS and precise-only mode meets QoS up to 310 QPS = 77 % of load, putting
saturation near 400 QPS at the nominal 8-core allocation.

MongoDB is I/O bound: most of each request is disk access, so it scales
poorly with cores and tolerates cache pressure, but it *is* sensitive to
memory-bandwidth saturation (page-cache copies ride the same memory
controller).  That combination is why it violates QoS badly in precise mode
yet typically recovers with mild approximation alone — the bandwidth
pressure relief from even the least-approximate variant is enough.
"""

from __future__ import annotations

from repro import units
from repro.services.base import InteractiveService, InterferenceSensitivity
from repro.services.latency import LatencyCurve, LatencyCurveParams

#: Saturation throughput at the nominal 8-core allocation.
SATURATION_QPS = 400.0


class MongoDB(InteractiveService):
    """Disk-backed document store with millisecond-scale service times."""

    name = "mongodb"
    llc_footprint_bytes = units.mb(30)
    llc_intensity = 0.40
    #: Effective memory bytes per query (document + page-cache traffic).
    membw_bytes_per_query = 1.5 * units.MB
    #: Disk bytes per query (index walk + documents that miss the page cache).
    disk_bytes_per_query = 0.25 * units.MB
    #: Wire bytes per response.
    wire_bytes_per_query = 1.2 * units.KB
    #: Mostly waiting on the disk: half a core's cycles per unit of load.
    cpu_per_load = 0.5

    def __init__(self) -> None:
        super().__init__(
            curve=LatencyCurve(
                LatencyCurveParams(
                    base_p99=units.msec(22),
                    qos=units.msec(100),
                    noise_sigma=0.05,
                    max_utilization=0.985,
                )
            ),
            sensitivity=InterferenceSensitivity(
                llc=0.06,
                membw_linear=0.08,
                membw_overload=0.30,
                disk=0.40,
                colocation_floor=0.185,
                presence_ref=0.075,
                max_inflation=1.26,
            ),
            saturation_qps_nominal=SATURATION_QPS,
            nominal_cores=8,
            core_scaling_fraction=0.35,
            max_scaleout=1.15,
        )
