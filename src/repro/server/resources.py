"""Resource demand profiles.

A :class:`ResourceProfile` describes how a tenant stresses the shared parts
of the server *per core it runs on*: last-level-cache footprint and access
intensity, memory bandwidth, disk and network demand.  The interference
model combines the profiles of all co-located tenants into pressure values
that inflate the interactive service's request latency and slow down the
batch applications themselves.

Approximate variants scale a profile through :meth:`ResourceProfile.scaled`:
loop perforation skips memory accesses along with work, precision reduction
shrinks both footprint and traffic, and synchronization elision removes
coherence traffic (see ``repro.apps.knobs``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import units


@dataclass(frozen=True)
class ResourceProfile:
    """Per-core shared-resource demands of a tenant.

    Attributes
    ----------
    cpu_fraction:
        Fraction of a core's cycles the tenant actually burns (1.0 for
        compute-bound batch work; below 1 for I/O-heavy tenants).
    llc_footprint_bytes:
        Working-set size competing for LLC capacity (whole-tenant, not
        per-core; working sets are shared across threads).
    llc_intensity:
        Relative rate of LLC accesses (0..1 scale, 1 = cache-thrashing).
    membw_per_core:
        Memory bandwidth demand per running core, bytes/s.
    disk_bw:
        Disk bandwidth demand, bytes/s (whole tenant).
    network_bw:
        NIC demand, bytes/s (whole tenant).
    """

    cpu_fraction: float = 1.0
    llc_footprint_bytes: float = units.mb(8)
    llc_intensity: float = 0.5
    membw_per_core: float = units.gbytes_per_sec(1.0)
    disk_bw: float = 0.0
    network_bw: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_fraction <= 1.0:
            raise ValueError("cpu_fraction must lie in [0, 1]")
        for name in ("llc_footprint_bytes", "llc_intensity", "membw_per_core",
                     "disk_bw", "network_bw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def scaled(
        self,
        traffic_factor: float = 1.0,
        footprint_factor: float = 1.0,
    ) -> "ResourceProfile":
        """Scale memory traffic and/or cache footprint (approximate variants)."""
        if traffic_factor < 0 or footprint_factor < 0:
            raise ValueError("scale factors must be non-negative")
        return replace(
            self,
            llc_intensity=min(1.0, self.llc_intensity * traffic_factor),
            membw_per_core=self.membw_per_core * traffic_factor,
            llc_footprint_bytes=self.llc_footprint_bytes * footprint_factor,
        )

    def total_membw(self, cores: int) -> float:
        """Memory bandwidth demand when running on ``cores`` cores."""
        if cores < 0:
            raise ValueError("cores must be non-negative")
        return total_membw(self.membw_per_core, cores, self.cpu_fraction)


def total_membw(membw_per_core: float, cores: int, cpu_fraction: float) -> float:
    """Memory bandwidth of ``cores`` cores each asking ``membw_per_core``
    while busy for ``cpu_fraction`` of their cycles."""
    return membw_per_core * cores * cpu_fraction
