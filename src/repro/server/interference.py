"""Shared-resource contention model.

Combines the resource profiles of all tenants on a node into *pressure*
values for each shared resource; interactive services convert pressures into
service-time inflation through per-service sensitivities
(:class:`repro.services.base.InterferenceSensitivity`), and approximate
applications into a slowdown of their own progress.

Modeling choices
----------------
LLC: aggressors pollute the victim's cache at a rate proportional to their
footprint x access intensity relative to the LLC size (a linearized
proportional-occupancy model).  The victim's own access intensity weighs how
much it cares.  Pollution scales sublinearly with the aggressor's core count
(more cores touch the working set faster, with diminishing overlap).

Memory bandwidth: two components.  A *linear* term — the aggressors' share
of bus utilization — captures the steady rise of memory access latency with
bus load; a *quadratic overload* term kicks in when total utilization passes
a knee, capturing memory-controller queueing near saturation.  The quadratic
term is what makes small traffic reductions from approximation so effective
when the bus is nearly saturated.

Disk / network: same linear + overload shape on the respective capacities.

Pressures are *marginal*: the victim's own contribution is subtracted,
because each service's latency curve is calibrated against isolation runs.
Core contention is absent by construction — tenants are pinned to disjoint
physical cores, as in the paper.

Each tenant's :class:`Contribution` to the four shared resources is built
once per change of its profile or cores (:func:`contribution`), so a
pressure query only sums the aggressors' contributions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from repro.server.platform import Platform
from repro.server.resources import ResourceProfile

#: Reference core count for LLC pollution-rate scaling (the nominal fair
#: share of one tenant in the paper's single-app colocations).
_REFERENCE_CORES = 8

#: Bus utilization where overload queueing starts.
_OVERLOAD_KNEE = 0.60


class PressureBreakdown(NamedTuple):
    """Per-resource marginal contention pressure felt by one tenant.

    Immutable, so one breakdown can be cached and shared until the node
    changes; a named tuple is also several times cheaper to build than a
    frozen dataclass, which matters on the per-epoch path.
    """

    llc: float = 0.0
    membw_linear: float = 0.0
    membw_overload: float = 0.0
    disk: float = 0.0
    network: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.llc
            + self.membw_linear
            + self.membw_overload
            + self.disk
            + self.network
        )


def _overload(utilization: float, knee: float = _OVERLOAD_KNEE) -> float:
    """Quadratic queueing pressure above the ``knee`` utilization."""
    if utilization <= knee:
        return 0.0
    return ((utilization - knee) / (1.0 - knee)) ** 2


class Contribution(NamedTuple):
    """What one tenant puts on the shared resources.

    ``llc_demand`` is the tenant's cache-pollution rate in bytes (footprint
    x access intensity, scaled by the square root of its cores relative to
    :data:`_REFERENCE_CORES`); the others are bytes/s.  An idle tenant
    (no cores) contributes nothing.
    """

    llc_demand: float
    membw: float
    disk_bw: float
    network_bw: float


_IDLE = Contribution(0.0, 0.0, 0.0, 0.0)


def contribution(profile: ResourceProfile, cores: int) -> Contribution:
    """The contention ``profile`` running on ``cores`` cores adds."""
    if cores <= 0:
        return _IDLE
    rate_scale = math.sqrt(cores / _REFERENCE_CORES)
    return Contribution(
        llc_demand=profile.llc_footprint_bytes * profile.llc_intensity * rate_scale,
        membw=profile.total_membw(cores),
        disk_bw=profile.disk_bw,
        network_bw=profile.network_bw,
    )


class InterferenceModel:
    """Computes contention pressures for tenants sharing a platform."""

    def __init__(self, platform: Platform) -> None:
        # Platforms are frozen: read the capacities once.
        self._llc_bytes = platform.llc_bytes
        self._memory_bandwidth = platform.memory_bandwidth
        self._disk_bandwidth = platform.disk_bandwidth
        self._network_bandwidth = platform.network_bandwidth

    def pressure_on(
        self,
        victim: ResourceProfile,
        victim_cores: int,
        aggressors: Iterable[Contribution],
    ) -> PressureBreakdown:
        """Marginal pressure the ``aggressors`` exert on ``victim``."""
        llc_demand = membw = disk_bw = network_bw = 0.0
        for llc_d, bw, disk_d, network_d in aggressors:
            llc_demand += llc_d
            membw += bw
            disk_bw += disk_d
            network_bw += network_d

        llc, membw_linear, membw_overload = self._llc_membw(
            victim, victim_cores, llc_demand, membw
        )
        disk = self._bw_pressure(victim.disk_bw, disk_bw, self._disk_bandwidth)
        network = self._bw_pressure(
            victim.network_bw, network_bw, self._network_bandwidth
        )
        return PressureBreakdown(
            llc=llc,
            membw_linear=membw_linear,
            membw_overload=membw_overload,
            disk=disk,
            network=network,
        )

    def app_pressure(
        self,
        victim: ResourceProfile,
        victim_cores: int,
        aggressors: Iterable[Contribution],
    ) -> float:
        """The pressure an approximate app's progress responds to.

        Batch apps are slowed by the memory hierarchy only: half the LLC
        pressure plus both memory-bandwidth terms of :meth:`pressure_on`,
        computed by the same formula without the disk and network terms.
        """
        llc_demand = membw = 0.0
        for llc_d, bw, _, _ in aggressors:
            llc_demand += llc_d
            membw += bw
        llc, membw_linear, membw_overload = self._llc_membw(
            victim, victim_cores, llc_demand, membw
        )
        return 0.5 * llc + membw_linear + membw_overload

    def _llc_membw(
        self,
        victim: ResourceProfile,
        victim_cores: int,
        llc_demand: float,
        membw: float,
    ) -> tuple[float, float, float]:
        """LLC, linear and overload bandwidth pressure from summed demands."""
        llc_bytes = self._llc_bytes
        # Aggregate cache-pollution rate as a fraction of the LLC, capped.
        pollution = min(1.5, llc_demand / llc_bytes) if llc_bytes > 0 else 0.0
        llc = pollution * victim.llc_intensity

        capacity = self._memory_bandwidth
        own_bw = victim.total_membw(victim_cores)
        total_util = (own_bw + membw) / capacity if capacity > 0 else 0.0
        own_util = own_bw / capacity if capacity > 0 else 0.0
        membw_linear = max(0.0, total_util - own_util)
        membw_overload = max(0.0, _overload(total_util) - _overload(own_util))
        return llc, membw_linear, membw_overload

    @staticmethod
    def _bw_pressure(
        victim_demand: float, aggressor_demand: float, capacity: float
    ) -> float:
        """Linear + overload pressure on a simple shared-bandwidth resource."""
        if capacity <= 0:
            return 0.0
        own = victim_demand / capacity
        total = (victim_demand + aggressor_demand) / capacity
        linear = max(0.0, total - own)
        overload = max(0.0, _overload(total) - _overload(own))
        return linear + overload
