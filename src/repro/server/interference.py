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
pressure query only sums the aggressors' contributions.  The per-resource
terms are module functions (:func:`llc_pressure`, :func:`bandwidth` and
its parts) behind :meth:`InterferenceModel.pressure_on`, the reference
model.  The colocation engine's contention plan
(:class:`repro.core.runtime.ContentionPlan`) calls them only when it is
built; per epoch it evaluates the terms that move with the service's load
as inlined copies of these formulas.  Nothing in the code keeps the copies
equal: ``tests/server/test_contention_properties.py`` does, comparing the
plan with :meth:`InterferenceModel.pressure_on` bit for bit over drawn
platforms, tenants, loads and sensitivities.
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

    Immutable, so one breakdown can be shared until the node changes.  The
    engine's per-epoch path builds none: the contention plan keeps the five
    terms in locals, and :meth:`~repro.core.runtime.ContentionPlan.pressure`
    hands them out as a breakdown on request.
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


def overload(share: float, knee: float = _OVERLOAD_KNEE) -> float:
    """Quadratic queueing pressure above the ``knee`` utilization."""
    if share <= knee:
        return 0.0
    return ((share - knee) / (1.0 - knee)) ** 2


def llc_pressure(llc_demand: float, llc_bytes: float, victim_intensity: float) -> float:
    """LLC pressure of the aggressors' summed ``llc_demand`` on a victim.

    The aggregate pollution rate as a fraction of the LLC, capped, weighed
    by how much the victim cares (its access intensity).
    """
    pollution = min(1.5, llc_demand / llc_bytes) if llc_bytes > 0 else 0.0
    return pollution * victim_intensity


def utilization(demand: float, capacity: float) -> float:
    """``demand`` as a share of ``capacity`` (0 for a missing resource)."""
    return demand / capacity if capacity > 0 else 0.0


def marginal(own_util: float, own_overload: float, total_util: float) -> tuple[float, float]:
    """Linear and overload pressure of the others' share of a bandwidth.

    ``own_util`` and ``own_overload`` (its :func:`overload`) describe the
    victim alone; ``total_util`` the victim and its aggressors together.
    """
    return (
        max(0.0, total_util - own_util),
        max(0.0, overload(total_util) - own_overload),
    )


def bandwidth(own: float, others: float, capacity: float) -> tuple[float, float]:
    """Linear and overload pressure ``others`` bytes/s put on a victim
    asking ``own`` bytes/s of a shared ``capacity``."""
    own_util = utilization(own, capacity)
    return marginal(own_util, overload(own_util), utilization(own + others, capacity))


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

        membw_linear, membw_overload = bandwidth(
            victim.total_membw(victim_cores), membw, self._memory_bandwidth
        )
        disk_linear, disk_overload = bandwidth(
            victim.disk_bw, disk_bw, self._disk_bandwidth
        )
        network_linear, network_overload = bandwidth(
            victim.network_bw, network_bw, self._network_bandwidth
        )
        return PressureBreakdown(
            llc=llc_pressure(llc_demand, self._llc_bytes, victim.llc_intensity),
            membw_linear=membw_linear,
            membw_overload=membw_overload,
            disk=disk_linear + disk_overload,
            network=network_linear + network_overload,
        )
