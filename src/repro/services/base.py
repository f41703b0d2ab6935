"""Interactive-service interface.

An :class:`InteractiveService` bundles everything the colocation simulator
needs to produce the latency stream the Pliant monitor observes:

* QoS target and saturation throughput as a function of allocated cores,
* a calibrated :class:`~repro.services.latency.LatencyCurve`,
* per-resource :class:`InterferenceSensitivity` coefficients that convert
  contention pressure into service-time inflation, and
* the resource profile the service itself presents to co-runners.

A :class:`BacklogTracker` models saturation episodes: when offered load
exceeds capacity, unserved requests accumulate and drain later, producing
the latency spikes visible in the paper's Fig. 4 timelines.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass

from repro.server.interference import PressureBreakdown
from repro.server.resources import ResourceProfile
from repro.services.latency import LatencyCurve


@dataclass(frozen=True)
class InterferenceSensitivity:
    """Service-time inflation from contention pressure.

    Two components:

    * a *colocation floor* — the disruption any active co-runner causes
      (prefetcher pollution, TLB shootdowns, cache dirtying).  It ramps in
      over ``presence_ref``: a precise co-runner saturates it, while a
      deeply decontended approximate variant (low traffic rate) escapes
      most of it.  ``presence_ref`` therefore controls how often
      "approximation alone" can restore QoS for this service — small for
      memcached (almost always needs a core too), larger for MongoDB.
    * linear per-resource terms.  ``membw_linear`` responds to the
      aggressors' share of bus utilization; ``membw_overload`` to the
      quadratic queueing term near saturation (steep relief when
      approximation sheds a little bandwidth).
    """

    llc: float = 0.0
    membw_linear: float = 0.0
    membw_overload: float = 0.0
    disk: float = 0.0
    network: float = 0.0
    colocation_floor: float = 0.0
    presence_ref: float = 0.15
    #: Ceiling on total inflation: the memory-stall share of service time is
    #: finite, so interference cannot inflate it without bound.  Calibrated
    #: per service so that a precise co-runner pushes the operating point
    #: deep into the latency curve's tail without tipping the service into
    #: sustained overload (which the paper's precise baselines never show).
    max_inflation: float = 1.30

    def weighted_pressure(self, pressure: PressureBreakdown) -> float:
        return (
            self.llc * pressure.llc
            + self.membw_linear * pressure.membw_linear
            + self.membw_overload * pressure.membw_overload
            + self.disk * pressure.disk
            + self.network * pressure.network
        )

    def inflation(self, pressure: PressureBreakdown) -> float:
        """Multiplicative service-time inflation (>= 1)."""
        weighted = self.weighted_pressure(pressure)
        presence = min(1.0, weighted / self.presence_ref) if self.presence_ref else 1.0
        raw = 1.0 + self.colocation_floor * presence + weighted
        return min(raw, self.max_inflation)


class InteractiveService(ABC):
    """A latency-critical service colocated on the node.

    A subclass names itself and sets the constants of the contention it
    generates (see :meth:`profile`).
    """

    #: service identifier ("nginx", "memcached", "mongodb")
    name: str
    #: Working set competing for the LLC, bytes.
    llc_footprint_bytes: float
    #: Relative rate of LLC accesses (0..1).
    llc_intensity: float
    #: Memory traffic per query, bytes.
    membw_bytes_per_query: float
    #: Disk traffic per query, bytes.
    disk_bytes_per_query: float = 0.0
    #: NIC traffic per query, bytes.
    wire_bytes_per_query: float
    #: CPU share per unit of load (offered over saturation throughput).
    cpu_per_load: float = 1.0

    def __init__(
        self,
        curve: LatencyCurve,
        sensitivity: InterferenceSensitivity,
        saturation_qps_nominal: float,
        nominal_cores: int = 8,
        core_scaling_fraction: float = 0.9,
        max_scaleout: float = 1.20,
    ) -> None:
        if saturation_qps_nominal <= 0:
            raise ValueError("saturation_qps_nominal must be positive")
        if nominal_cores <= 0:
            raise ValueError("nominal_cores must be positive")
        if not 0.0 <= core_scaling_fraction <= 1.0:
            raise ValueError("core_scaling_fraction must lie in [0, 1]")
        if max_scaleout < 1.0:
            raise ValueError("max_scaleout must be at least 1.0")
        #: The p99 QoS target, the one its latency curve is calibrated to.
        self.qos = curve.params.qos
        self.curve = curve
        self.sensitivity = sensitivity
        self._saturation_nominal = saturation_qps_nominal
        self._nominal_cores = nominal_cores
        self._core_scaling = core_scaling_fraction
        self._max_scaleout = max_scaleout

    # -- capacity -------------------------------------------------------------

    @property
    def nominal_cores(self) -> int:
        """Reference core count the saturation throughput is quoted at."""
        return self._nominal_cores

    def saturation_qps(self, cores: int) -> float:
        """Saturation throughput on ``cores`` cores.

        Scales with an Amdahl-style model: a ``core_scaling_fraction`` of
        capacity scales linearly with cores, the rest (I/O, accept path) is
        fixed.  Exactly the nominal value at the nominal core count.
        Beyond the nominal allocation, capacity is additionally capped at
        ``max_scaleout`` x nominal — the NIC / interrupt path (the paper
        reserves a fixed six irq cores) bounds how far reclaimed cores can
        stretch a service.  This is why the paper's load sweep sees
        persistent violations above ~90 % load no matter what Pliant does.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        linear = self._core_scaling * cores / self._nominal_cores
        raw = self._saturation_nominal * (linear + (1.0 - self._core_scaling))
        return min(raw, self._saturation_nominal * self._max_scaleout)

    def utilization(
        self,
        qps: float,
        cores: int,
        pressure: PressureBreakdown | None = None,
        inflation: float | None = None,
    ) -> float:
        """Effective utilization including interference inflation.

        ``inflation`` (when given) overrides the pressure-derived value —
        the engine uses this to feed a time-smoothed inflation.
        """
        if qps < 0:
            raise ValueError("qps must be non-negative")
        if inflation is None:
            inflation = (
                1.0 if pressure is None else self.sensitivity.inflation(pressure)
            )
        return qps * inflation / self.saturation_qps(cores)

    # -- latency ---------------------------------------------------------------

    def p99_at(
        self,
        qps: float,
        cores: int,
        pressure: PressureBreakdown | None = None,
        inflation: float | None = None,
    ) -> float:
        """Deterministic p99 at an operating point."""
        return self.curve.p99(self.utilization(qps, cores, pressure, inflation))

    def sample_p99(
        self,
        qps: float,
        cores: int,
        pressure: PressureBreakdown | None,
        z: float,
        epoch: float,
        backlog_penalty: float = 0.0,
        inflation: float | None = None,
    ) -> float:
        """One noisy epoch observation (what the monitor's client sees).

        ``z`` is the standard-normal draw behind the observation's noise
        (see :meth:`LatencyCurve.sample_p99`).
        """
        utilization = self.utilization(qps, cores, pressure, inflation)
        return self.curve.sample_p99(
            utilization,
            z,
            requests_observed=max(qps * epoch, 10.0),
            backlog_penalty=backlog_penalty,
        )

    # -- contention the service generates --------------------------------------

    def demand(
        self, qps: float, cores: int, saturation_qps: float
    ) -> tuple[float, float, float, float]:
        """The service's demands that move with load, at ``qps`` on ``cores``.

        ``saturation_qps`` is :meth:`saturation_qps` at ``max(cores, 1)``.
        Returns ``(cpu_fraction, membw_per_core, disk_bw, network_bw)``:
        the share of its cores' cycles the load burns (``cpu_per_load`` per
        unit of load, floored at 0.1), and the per-query bytes of each
        resource times ``qps``.  Footprint and LLC intensity do not move.
        """
        return (
            min(1.0, max(0.1, self.cpu_per_load * (qps / saturation_qps))),
            qps * self.membw_bytes_per_query / max(cores, 1),
            qps * self.disk_bytes_per_query,
            qps * self.wire_bytes_per_query,
        )

    def profile(self, qps: float, cores: int) -> ResourceProfile:
        """Resource demands of the service at the given operating point."""
        cpu_fraction, membw_per_core, disk_bw, network_bw = self.demand(
            qps, cores, self.saturation_qps(max(cores, 1))
        )
        return ResourceProfile(
            cpu_fraction=cpu_fraction,
            llc_footprint_bytes=self.llc_footprint_bytes,
            llc_intensity=self.llc_intensity,
            membw_per_core=membw_per_core,
            disk_bw=disk_bw,
            network_bw=network_bw,
        )


class BacklogTracker:
    """Queue-buildup state for saturation episodes.

    While offered load exceeds capacity the unserved request backlog grows;
    once utilization falls below 1 the backlog drains at the spare capacity.
    ``penalty`` converts the backlog into extra queueing latency: the time a
    newly arriving request would wait behind the backlog.
    """

    def __init__(self) -> None:
        self._backlog_requests = 0.0

    @property
    def backlog(self) -> float:
        return self._backlog_requests

    def update(self, offered_qps: float, capacity_qps: float, dt: float) -> None:
        if dt < 0:
            raise ValueError("dt must be non-negative")
        delta = (offered_qps - capacity_qps) * dt
        self._backlog_requests = max(0.0, self._backlog_requests + delta)

    def penalty(self, capacity_qps: float) -> float:
        """Extra latency (seconds) due to the current backlog."""
        if capacity_qps <= 0:
            return 0.0
        return self._backlog_requests / capacity_qps

    def reset(self) -> None:
        self._backlog_requests = 0.0
