"""The epoch-driven colocation engine.

Binds everything together: a server node hosting one interactive service
and one or more approximate applications, an open-loop load generator, the
interference model, the client-side monitor, and a runtime policy (Pliant
or a baseline).  Time advances in monitor epochs (100 ms); policies act at
decision-interval boundaries (1 s by default), exactly as in the paper.

The engine runs one decision interval at a time, as one loop over its
epochs.  A policy acts only between intervals, so inside one the service's
cores, every app's level and cores, and with them the saturation
throughput, stay fixed; only the offered load, the noise and the apps'
progress move.  The run keeps the loop's state and the latency curve's
constants in locals, reads what an interval cannot change — the
saturation throughput and the monitor's sampling rule — once per
interval, and recomputes the latency noise's sigma only when the offered
QPS changes.  Each epoch it:

1. samples the offered load,
2. steps the smoothed service-time inflation, the saturation backlog and
   the utilization they give,
3. draws a noisy p99 latency observation for the monitor, evaluating the
   float expressions of :meth:`InteractiveService.sample_p99`,
   :class:`BacklogTracker` and :meth:`PerformanceMonitor.should_sample`
   in their order, so every value is theirs bit for bit, and
4. advances each running application's logical progress at a rate set by
   its core allocation (Amdahl), active variant (measured time factor),
   DynamoRIO overhead (when instrumented) and the contention it suffers
   itself (:meth:`AppSim.advance`).

The service's cores and each app's level and cores are recorded once per
interval and expanded into per-epoch columns at the end; a run keeps its
interval observations as columns too (:class:`ColocationResult`).  A
count of running apps ends a run whose apps are all done.

Contention follows a per-configuration plan (:class:`ContentionPlan`).
A configuration is every tenant's profile and cores; it changes only at
a level switch, a core move or an app finishing, while the offered QPS
may move every epoch.  The plan is built with the engine and again
before the next app advance after each of those events, so apps
advanced later in the epoch an app finishes already see it idle.  It holds
everything that does not depend on QPS: the service's saturation
throughput, the apps' contributions as the service sees them, every LLC
term, and each running app's execution time without contention, own
bandwidth terms and the other apps' bandwidths.  A QPS change evaluates
only the rest — the service's CPU share and memory, disk and network
demand, its bandwidth pressure and inflation, and each app's execution
time — as flat arithmetic on locals that inlines the service's demand,
the interference terms and the inflation, with no call and no tuple
built.  It keeps every operand and summation order of a fresh
:meth:`ServerNode.pressure_on` and of
:meth:`InterferenceSensitivity.inflation`, so results are bit-identical to
recomputing everything every epoch.  The interval loop holds the raw
inflation the plan returns and the QPS it was evaluated at in locals, and
evaluates again only when the QPS changes.  The service tenant's profile is
refreshed when the plan is built; between builds, the service's demand
that depends on QPS lives in the plan, not in its tenant.  Each ladder
level's resource profile, time factor, traffic rate and inaccuracy are
built once per process for each ladder (:func:`_level_tables`, keyed on
the ladder's frozen variants and the app's precise profile); the
inflation smoothing factor and the list of app simulations the loop
walks are built with the engine.

Between intervals the engine does only what the policy asks for.  It
keeps the running apps' views (:meth:`ColocationEngine.running_views`)
until a level switch, a core move or an app finishing drops them.  An interval's action summary
compares every app's level and cores with a snapshot that the
interval's first actuation takes; an interval without one is ``"hold"``
and takes no snapshot, as is one whose actuations cancel out.

All randomness comes from one seeded generator, drawn as blocks of
standard normals: the epoch's latency noise is ``exp(-sigma**2/2 +
sigma * z)`` and the elision noise ``sigma * z`` over successive draws
``z``, the same values scalar ``lognormal`` and ``normal`` calls return.

An application's final output quality is the progress-weighted mix of the
inaccuracies of the variants it actually executed — running half the span
precise and half at 4 % loses ~2 % — plus a small nondeterministic term for
spans executed with synchronization elision (the mechanism behind the
paper's canneal+memcached 5.4 % worst case).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import repeat
from operator import attrgetter, le
from numbers import Real

import numpy as np

from repro.apps.base import ApproximableApp, MeasuredVariant
from repro.core.actuator import Actuator
from repro.core.arbiter import AppView
from repro.core.monitor import OBSERVATION_SETTERS, IntervalObservation, PerformanceMonitor
from repro.core.policy import RuntimePolicy
from repro.search.ladder import ApproxLadder
from repro.rng import child_generator
from repro.server.interference import (
    _OVERLOAD_KNEE,
    PressureBreakdown,
    llc_pressure,
    overload,
    utilization,
)
from repro.server.node import ServerNode
from repro.server.platform import Platform, default_platform
from repro.server.resources import ResourceProfile
from repro.server.tenant import Tenant, TenantKind
from repro.services.base import InteractiveService
from repro.services.loadgen import MAX_LOAD_FRACTION, ConstantLoad, LoadGenerator
from repro.telemetry import get_recorder

#: Slowdown an approximate app suffers per unit of contention pressure on
#: itself (batch apps tolerate interference far better than tail latency).
_APP_PRESSURE_SENSITIVITY = 0.25

#: Relative sigma of the nondeterministic quality noise for progress spans
#: executed with synchronization elision.
_ELISION_QUALITY_SIGMA = 0.35

#: Time constant (seconds) over which the service's effective inflation
#: tracks the raw contention-derived value (cache refill / queue drain).
#: Short enough that a variant switch is fully visible by the next decision
#: interval, long enough that mid-interval changes blur realistically.
_INFLATION_TIME_CONSTANT = 0.5

#: Standard-normal draws fetched from the engine's generator at a time.
#: A block yields exactly the values that as many scalar draws would.
_NORMAL_BLOCK = 256

_IDLE_PROFILE = ResourceProfile(
    cpu_fraction=0.0,
    llc_footprint_bytes=0.0,
    llc_intensity=0.0,
    membw_per_core=0.0,
    disk_bw=0.0,
    network_bw=0.0,
)


@lru_cache(maxsize=256)
def _level_tables(
    levels: tuple[MeasuredVariant, ...], base: ResourceProfile
) -> tuple[tuple, ...]:
    """Per ladder level: the resource profile scaled from the precise
    ``base``, the time factor, inaccuracy and traffic rate, and whether the
    variant elides synchronization.

    Both arguments are frozen and hashable, so the tables are built once
    per process for each ladder and profile.
    """
    return (
        tuple(v.scaled_profile(base) for v in levels),
        tuple(v.time_factor for v in levels),
        tuple(v.inaccuracy_pct for v in levels),
        tuple(v.traffic_rate_factor for v in levels),
        tuple(any(value is True for value in v.spec.values()) for v in levels),
    )


def _standard_normals(rng: np.random.Generator) -> Iterator[float]:
    """Endless stream of ``rng``'s standard-normal draws, fetched in blocks.

    numpy's ``lognormal(m, s)`` is ``exp(m + s * z)`` and ``normal(0, s)``
    is ``0 + s * z`` over the same ``z`` this yields, so consumers that
    apply those formulas see the values scalar sampler calls would return.
    """
    while True:
        yield from rng.standard_normal(_NORMAL_BLOCK).tolist()


@dataclass
class AppSim:
    """Simulation state of one approximate application."""

    app: ApproximableApp
    ladder: ApproxLadder
    tenant: Tenant
    #: Whether the app runs instrumented: only then may it switch levels.
    instrumented: bool = False
    level: int = 0
    progress: float = 0.0
    pause_remaining: float = 0.0
    finished: bool = False
    finish_time: float | None = None
    inaccuracy_integral: float = 0.0
    elided_progress: float = 0.0
    #: ``(time, level)`` of every switch; its length is the switch count.
    level_trace: list[tuple[float, int]] = field(default_factory=list)
    #: Multiplier on execution time while instrumented (1.0 otherwise):
    #: one plus the app's measured DynamoRIO overhead.
    instrumentation_factor: float = 1.0
    #: Per-level constants, from the ladder's :func:`_level_tables`.
    level_profiles: tuple[ResourceProfile, ...] = field(init=False, repr=False)
    level_time_factors: tuple[float, ...] = field(init=False, repr=False)
    level_inaccuracies: tuple[float, ...] = field(init=False, repr=False)
    level_traffic_rates: tuple[float, ...] = field(init=False, repr=False)
    level_elides: tuple[bool, ...] = field(init=False, repr=False)
    #: Amdahl term at the tenant's nominal (fair-share) core count.
    amdahl_nominal: float = field(init=False, repr=False)
    #: Execution time at the current level, cores and contention, set by
    #: the engine's contention plan whenever the app is running.
    exec_time: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        (
            self.level_profiles,
            self.level_time_factors,
            self.level_inaccuracies,
            self.level_traffic_rates,
            self.level_elides,
        ) = _level_tables(tuple(self.ladder.levels), self.app.metadata.profile)
        p = self.app.metadata.parallel_fraction
        self.amdahl_nominal = (1.0 - p) + p / max(self.tenant.nominal_cores, 1)

    @property
    def name(self) -> str:
        return self.app.name

    def active_profile(self) -> ResourceProfile:
        if self.finished:
            return _IDLE_PROFILE
        return self.level_profiles[self.level]

    def advance(self, dt: float, now: float) -> bool:
        """Advance the running app by the ``dt`` seconds from ``now``.

        A pending switch pause is consumed first.  Returns whether the app
        finished; its tenant then goes idle.
        """
        if self.pause_remaining > 0:
            consumed = min(self.pause_remaining, dt)
            self.pause_remaining -= consumed
            dt -= consumed
            if dt <= 0:
                return False
        level = self.level
        dp = dt / self.exec_time
        remaining = 1.0 - self.progress
        if remaining < dp:
            dp = remaining
        self.progress += dp
        self.inaccuracy_integral += dp * self.level_inaccuracies[level]
        if self.level_elides[level]:
            self.elided_progress += dp
        if self.progress >= 1.0 - 1e-12:
            self.finished = True
            self.finish_time = now + dt
            self.tenant.set_profile(_IDLE_PROFILE)
            return True
        return False


class ContentionPlan:
    """The node's contention at one configuration, as a function of QPS.

    A configuration is every tenant's profile and cores with the service's
    load left open.  Building the plan computes what does not depend on
    QPS: the service's saturation throughput, the apps' summed
    contributions as the service sees them, every LLC term (the service's
    LLC demand has no QPS in it) and, for each running app, its execution
    time without contention, its own bandwidth terms and the other apps'
    bandwidths in tenant order.  It also reads the service's per-query
    demands and its sensitivity's coefficients.

    :meth:`evaluate` computes the rest as flat arithmetic on locals, with
    no helper call and no tuple built: the service's demand
    (:meth:`InteractiveService.demand`), its three bandwidth terms with
    their overload knee (:func:`~repro.server.interference.bandwidth`),
    its inflation (:meth:`InterferenceSensitivity.inflation`) and each
    app's marginal memory terms
    (:func:`~repro.server.interference.marginal`).  Each expression keeps
    its original's operands and order: aggressors are summed from 0.0 in
    tenant order, the service first when the victim is an app, and
    ``max(0.0, d)`` is written ``d if d > 0.0 else 0.0``, which returns the
    same float for every ``d``, ``-0.0`` and NaN included (``min`` alike).
    Every value therefore equals a fresh :meth:`ServerNode.pressure_on`
    computation bit for bit; ``tests/server/test_contention_properties.py``
    checks that against drawn platforms, tenants and sensitivities.

    ``sims`` are the apps in tenant order, and the service tenant's profile
    must be current for its cores; its load only moves the terms
    :meth:`evaluate` recomputes.
    """

    __slots__ = (
        "saturation_qps",
        "_cores",
        "_cpu_per_load",
        "_membw_per_query",
        "_disk_per_query",
        "_wire_per_query",
        "_memory_bandwidth",
        "_disk_bandwidth",
        "_network_bandwidth",
        "_llc",
        "_apps_membw",
        "_apps_disk",
        "_apps_network",
        "_sensitivity",
        "_weighted_llc",
        "_apps",
    )

    def __init__(
        self,
        platform: Platform,
        service: InteractiveService,
        service_tenant: Tenant,
        sims: list[AppSim],
    ) -> None:
        cores = service_tenant.cores
        # Raises unless cores > 0, so demand's max(cores, 1) is cores.
        self.saturation_qps = service.saturation_qps(cores)
        self._cores = cores
        self._cpu_per_load = service.cpu_per_load
        self._membw_per_query = service.membw_bytes_per_query
        self._disk_per_query = service.disk_bytes_per_query
        self._wire_per_query = service.wire_bytes_per_query
        llc_bytes = platform.llc_bytes
        memory_bandwidth = self._memory_bandwidth = platform.memory_bandwidth
        self._disk_bandwidth = platform.disk_bandwidth
        self._network_bandwidth = platform.network_bandwidth

        contributions = [sim.tenant.contribution for sim in sims]
        llc_demand = membw = disk_bw = network_bw = 0.0
        for app_llc, app_bw, app_disk, app_network in contributions:
            llc_demand += app_llc
            membw += app_bw
            disk_bw += app_disk
            network_bw += app_network
        self._llc = llc_pressure(llc_demand, llc_bytes, service.llc_intensity)
        self._apps_membw = membw
        self._apps_disk = disk_bw
        self._apps_network = network_bw
        sensitivity = self._sensitivity = service.sensitivity
        # The first term of the weighted pressure has no QPS in it.
        self._weighted_llc = sensitivity.llc * self._llc

        service_llc = service_tenant.contribution.llc_demand
        apps = []
        for sim in sims:
            if sim.finished:
                continue
            llc_demand = 0.0
            llc_demand += service_llc
            others = []
            for other, contribution in zip(sims, contributions):
                if other is not sim:
                    llc_demand += contribution.llc_demand
                    others.append(contribution.membw)
            tenant = sim.tenant
            own_bw = tenant.profile.total_membw(tenant.cores)
            own_util = utilization(own_bw, memory_bandwidth)
            metadata = sim.app.metadata
            p = metadata.parallel_fraction
            amdahl_now = (1.0 - p) + p / max(tenant.cores, 1)
            base = metadata.nominal_exec_time * amdahl_now / sim.amdahl_nominal
            base *= sim.level_time_factors[sim.level]
            base *= sim.instrumentation_factor
            # Batch apps are slowed by the memory hierarchy only: half the
            # LLC pressure plus both memory-bandwidth terms.
            half_llc = 0.5 * llc_pressure(
                llc_demand, llc_bytes, tenant.profile.llc_intensity
            )
            apps.append(
                (sim, base, half_llc, own_bw, own_util, overload(own_util), tuple(others))
            )
        self._apps = tuple(apps)

    def pressure(self, qps: float) -> PressureBreakdown:
        """The pressure on the service at ``qps``: :meth:`evaluate`'s terms,
        taken before it computes the inflation or touches any app."""
        return self.evaluate(qps, True)

    def evaluate(
        self, qps: float, breakdown: bool = False
    ) -> float | PressureBreakdown:
        """The service's raw inflation at ``qps``; sets each running app's
        ``exec_time``.  With ``breakdown``, see :meth:`pressure`."""
        knee = _OVERLOAD_KNEE
        # InteractiveService.demand: the CPU share, floored at 0.1 and
        # capped at 1, and the per-query bytes times QPS.
        cpu_fraction = self._cpu_per_load * (qps / self.saturation_qps)
        cpu_fraction = cpu_fraction if cpu_fraction > 0.1 else 0.1
        cpu_fraction = cpu_fraction if cpu_fraction < 1.0 else 1.0
        # total_membw of the per-core demand on the service's cores.
        cores = self._cores
        service_bw = qps * self._membw_per_query / cores * cores * cpu_fraction
        disk_bw = qps * self._disk_per_query
        network_bw = qps * self._wire_per_query

        # bandwidth(own, others, capacity) of each resource: the linear
        # term and the overload term above the knee, each floored at 0.
        memory_bandwidth = self._memory_bandwidth
        if memory_bandwidth > 0:
            own = service_bw / memory_bandwidth
            total = (service_bw + self._apps_membw) / memory_bandwidth
        else:
            own = total = 0.0
        d = total - own
        membw_linear = d if d > 0.0 else 0.0
        d = (0.0 if total <= knee else ((total - knee) / (1.0 - knee)) ** 2) - (
            0.0 if own <= knee else ((own - knee) / (1.0 - knee)) ** 2
        )
        membw_overload = d if d > 0.0 else 0.0

        capacity = self._disk_bandwidth
        if capacity > 0:
            own = disk_bw / capacity
            total = (disk_bw + self._apps_disk) / capacity
        else:
            own = total = 0.0
        d = total - own
        disk = d if d > 0.0 else 0.0
        d = (0.0 if total <= knee else ((total - knee) / (1.0 - knee)) ** 2) - (
            0.0 if own <= knee else ((own - knee) / (1.0 - knee)) ** 2
        )
        disk += d if d > 0.0 else 0.0

        capacity = self._network_bandwidth
        if capacity > 0:
            own = network_bw / capacity
            total = (network_bw + self._apps_network) / capacity
        else:
            own = total = 0.0
        d = total - own
        network = d if d > 0.0 else 0.0
        d = (0.0 if total <= knee else ((total - knee) / (1.0 - knee)) ** 2) - (
            0.0 if own <= knee else ((own - knee) / (1.0 - knee)) ** 2
        )
        network += d if d > 0.0 else 0.0

        if breakdown:
            return PressureBreakdown(
                self._llc, membw_linear, membw_overload, disk, network
            )

        # InterferenceSensitivity.inflation.
        sensitivity = self._sensitivity
        weighted = (
            self._weighted_llc
            + sensitivity.membw_linear * membw_linear
            + sensitivity.membw_overload * membw_overload
            + sensitivity.disk * disk
            + sensitivity.network * network
        )
        presence_ref = sensitivity.presence_ref
        if presence_ref:
            presence = weighted / presence_ref
            presence = presence if presence < 1.0 else 1.0
        else:
            presence = 1.0
        raw = 1.0 + sensitivity.colocation_floor * presence + weighted
        max_inflation = sensitivity.max_inflation
        inflation = max_inflation if max_inflation < raw else raw

        # Each app's marginal memory terms, the service's bandwidth summed
        # first and the other apps' after it, from 0.0 as pressure_on sums.
        app_sensitivity = _APP_PRESSURE_SENSITIVITY
        shared = 0.0 + service_bw
        for sim, base, half_llc, own_bw, own, own_overload, others in self._apps:
            membw = shared
            for other_bw in others:
                membw += other_bw
            if memory_bandwidth > 0:
                total = (own_bw + membw) / memory_bandwidth
            else:
                total = 0.0
            d = total - own
            linear = d if d > 0.0 else 0.0
            d = (
                0.0 if total <= knee else ((total - knee) / (1.0 - knee)) ** 2
            ) - own_overload
            sim.exec_time = base * (
                1.0 + app_sensitivity * (half_llc + linear + (d if d > 0.0 else 0.0))
            )
        return inflation


@dataclass(slots=True)
class AppOutcome:
    """Per-application results of one colocation run."""

    name: str
    finish_time: float | None
    inaccuracy_pct: float
    switches: int
    min_cores: int
    max_reclaimed: int
    level_trace: list[tuple[float, int]]

    @property
    def completed(self) -> bool:
        return self.finish_time is not None


@dataclass(slots=True)
class IntervalRecord:
    """One decision interval's observation and the action taken."""

    observation: IntervalObservation
    action_summary: str


@dataclass(eq=False)
class ColocationResult:
    """Everything a benchmark needs from one run.

    A result, fresh from a run or rebuilt from its pickle, keeps its
    interval columns and builds :attr:`intervals` on the first read;
    until then :meth:`qos_met_fraction` and pickling read the columns.
    Results compare by identity (``results_identical`` by content).
    """

    service_name: str
    policy_name: str
    qos: float
    epoch_times: np.ndarray
    epoch_p99: np.ndarray
    epoch_service_cores: np.ndarray
    epoch_app_levels: dict[str, np.ndarray]
    epoch_app_cores: dict[str, np.ndarray]
    intervals: list[IntervalRecord]
    apps: list[AppOutcome]
    offered_qps: float

    #: Startup transient excluded from run-level aggregates: the runtime
    #: needs a couple of decision intervals to react from the cold precise
    #: start, and the paper's aggregate bars reflect steady state.
    warmup_seconds: float = 3.0

    def _post_warmup_p99(self) -> np.ndarray:
        mask = self.epoch_times >= self.warmup_seconds
        return self.epoch_p99[mask] if mask.any() else self.epoch_p99

    @property
    def aggregate_p99(self) -> float:
        """Run-level tail latency: the median epoch p99.

        The controller intentionally relaxes the operating point until the
        tail sits just under QoS, and it takes brief slack probes (visible
        as spikes in the paper's Fig. 4 traces while its Fig. 5 aggregate
        bars still sit under QoS).  The median reads through both the
        sampling noise around the steady state and those transients; a run
        violating QoS most of the time still reads as a violation.  Use
        :attr:`mean_epoch_p99` and :meth:`qos_met_fraction` for stricter
        views.
        """
        values = self._post_warmup_p99()
        if len(values) == 0:
            return 0.0
        return float(np.percentile(values, 50))

    @property
    def mean_epoch_p99(self) -> float:
        """Plain post-warmup mean of the epoch p99 observations."""
        values = self._post_warmup_p99()
        return float(np.mean(values)) if len(values) else 0.0

    @property
    def qos_ratio(self) -> float:
        return self.aggregate_p99 / self.qos

    @property
    def qos_met(self) -> bool:
        return self.aggregate_p99 <= self.qos

    def qos_met_fraction(self) -> float:
        columns = self._undecoded_columns()
        if columns is None:
            met = [r.observation.qos_met for r in self.intervals]
        else:
            met = list(map(le, columns[_P99_COLUMN], columns[_QOS_COLUMN]))
        return sum(met) / len(met) if met else 1.0

    def app_outcome(self, name: str) -> AppOutcome:
        for outcome in self.apps:
            if outcome.name == name:
                return outcome
        raise LookupError(f"no app named {name!r} in result")

    def max_cores_reclaimed(self) -> int:
        return max((a.max_reclaimed for a in self.apps), default=0)

    def sustained_cores_reclaimed(self) -> int:
        """Total cores held away from the apps in the steady second half of
        the run — the Fig. 10 notion of "needed cores" (a core borrowed for
        one transient interval during convergence does not count)."""
        if len(self.epoch_times) == 0:
            return 0
        halfway = self.epoch_times[-1] / 2.0
        mask = self.epoch_times >= halfway
        total = 0
        for name, cores in self.epoch_app_cores.items():
            nominal = max(cores[0], 1)
            reclaimed = np.maximum(0, nominal - cores[mask])
            total += int(reclaimed.max()) if reclaimed.size else 0
        return total

    def __getattr__(self, name: str):
        """Build the interval records on the first read of
        :attr:`intervals`, then drop the interval columns.

        Only reached when ``intervals`` is not in the instance dict.  Two
        threads reading first may both decode; ``setdefault`` keeps one
        list, so both return it.
        """
        if name == "intervals":
            state = self.__dict__
            columns = state.get(_INTERVAL_COLUMNS)
            if columns is not None:
                intervals = state.setdefault("intervals", _interval_records(columns))
                state.pop(_INTERVAL_COLUMNS, None)
                return intervals
            if "intervals" in state:  # decoded by another thread since the miss
                return state["intervals"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _undecoded_columns(self) -> list[list] | None:
        """The interval columns while :attr:`intervals` is not built, else ``None``."""
        state = self.__dict__
        return None if "intervals" in state else state.get(_INTERVAL_COLUMNS)

    def __reduce__(self):
        """Pickle as one columnar payload, rebuilt by :func:`_rebuild_result`.

        The float epoch columns travel as one buffer and the int columns
        (service cores, then each app's levels, then each app's cores) as
        a second, each with its dtype; every interval field travels as a
        plain list and every app outcome as a tuple.  A rebuilt result
        whose records are not built yet passes its interval columns on
        as they are.
        """
        levels, cores = self.epoch_app_levels, self.epoch_app_cores
        interval_columns = self._undecoded_columns()
        if interval_columns is None:
            observations = [record.observation for record in self.intervals]
            interval_columns = [list(map(get, observations)) for get in _OBSERVATION_GETTERS] + [
                list(map(get, self.intervals)) for get in _RECORD_GETTERS
            ]
        return (
            _rebuild_result,
            (
                _result_scalars(self),
                tuple(levels),
                tuple(cores),
                len(self.epoch_times),
                *_pack_columns((self.epoch_times, self.epoch_p99)),
                *_pack_columns(
                    (self.epoch_service_cores, *levels.values(), *cores.values())
                ),
                interval_columns,
                tuple(map(_app_values, self.apps)),
            ),
        )


#: The payload's layout follows the dataclass fields, so a field added to
#: an observation, interval record or app outcome travels with the rest.
#: The interval record's first field is its observation; its other fields
#: and the observation's each travel as one list.
_OBSERVATION_GETTERS = tuple(attrgetter(f.name) for f in fields(IntervalObservation))
_RECORD_GETTERS = tuple(attrgetter(f.name) for f in fields(IntervalRecord)[1:])
_INTERVAL_FIELDS = len(_OBSERVATION_GETTERS) + len(_RECORD_GETTERS)
_P99_COLUMN, _QOS_COLUMN = (
    [f.name for f in fields(IntervalObservation)].index(name) for name in ("p99", "qos")
)
#: Where a rebuilt result keeps its interval columns until they are decoded.
_INTERVAL_COLUMNS = "_interval_columns"
_app_values = attrgetter(*(f.name for f in fields(AppOutcome)))
#: The result fields that travel as columns; the others as plain values.
_RESULT_COLUMNS = (
    "epoch_times",
    "epoch_p99",
    "epoch_service_cores",
    "epoch_app_levels",
    "epoch_app_cores",
    "intervals",
    "apps",
)
_RESULT_SCALARS = tuple(
    f.name for f in fields(ColocationResult) if f.name not in _RESULT_COLUMNS
)
_result_scalars = attrgetter(*_RESULT_SCALARS)


def _interval_records(columns: list[list]) -> list[IntervalRecord]:
    """The interval records the interval columns hold, the i-th from the
    i-th value of each column.

    Each observation's slot setters (not the frozen ``__init__``) fill
    one field of every observation in one ``map``.
    """
    observed = len(OBSERVATION_SETTERS)
    observations = list(map(object.__new__, repeat(IntervalObservation, len(columns[0]))))
    for set_field, column in zip(OBSERVATION_SETTERS, columns):
        deque(map(set_field, observations, column), maxlen=0)
    return list(map(IntervalRecord, observations, *columns[observed:]))


def _pack_columns(columns: tuple[np.ndarray, ...]) -> tuple[str, bytes]:
    """The dtype and the concatenated bytes of equal-length 1-D columns."""
    first = columns[0]
    for column in columns:
        if column.dtype != first.dtype or column.shape != first.shape or column.ndim != 1:
            raise ValueError(
                f"cannot pack a {column.dtype}{column.shape} epoch column "
                f"with a {first.dtype}{first.shape} one"
            )
    return first.dtype.str, b"".join([column.tobytes() for column in columns])


def _unpack_columns(
    dtype: str, buffer: bytes, count: int, length: int
) -> list[np.ndarray]:
    """``count`` columns of ``length`` values each, sliced from ``buffer``
    as C-contiguous, writeable arrays that own their data."""
    flat = np.frombuffer(buffer, dtype)
    if flat.size != count * length:
        raise ValueError(
            f"result payload holds {flat.size} {dtype} values for "
            f"{count} columns of {length}"
        )
    return [flat[i * length : (i + 1) * length].copy() for i in range(count)]


def _rebuild_result(
    scalars: tuple,
    level_names: tuple[str, ...],
    core_names: tuple[str, ...],
    length: int,
    float_dtype: str,
    floats: bytes,
    int_dtype: str,
    ints: bytes,
    interval_columns: list[list],
    apps: tuple[tuple, ...],
) -> ColocationResult:
    """Invert :meth:`ColocationResult.__reduce__`, building no interval
    record.  Raises ``ValueError`` when a buffer's length disagrees with
    its column count, or the interval columns with their field count or
    with each other, so a damaged payload never rebuilds a short result.
    """
    epoch_times, epoch_p99 = _unpack_columns(float_dtype, floats, 2, length)
    count = 1 + len(level_names) + len(core_names)
    service_cores, *app_columns = _unpack_columns(int_dtype, ints, count, length)
    state = dict(
        zip(_RESULT_SCALARS, scalars),
        epoch_times=epoch_times,
        epoch_p99=epoch_p99,
        epoch_service_cores=service_cores,
        epoch_app_levels=dict(zip(level_names, app_columns)),
        epoch_app_cores=dict(zip(core_names, app_columns[len(level_names) :])),
        apps=[AppOutcome(*values) for values in apps],
    )
    return _columnar_result(state, interval_columns)


def _columnar_result(state: dict, interval_columns: list[list]) -> ColocationResult:
    """A result whose instance dict is ``state`` (field values; any other
    field keeps its default) that builds ``intervals`` from
    ``interval_columns`` when first read.  Raises ``ValueError`` unless
    they are one list per interval field, all of one length."""
    lengths = {len(column) for column in interval_columns}
    if len(interval_columns) != _INTERVAL_FIELDS or len(lengths) != 1:
        raise ValueError(
            f"result payload holds {len(interval_columns)} interval columns of "
            f"lengths {sorted(lengths)} for {_INTERVAL_FIELDS} of one length"
        )
    state[_INTERVAL_COLUMNS] = interval_columns
    result = object.__new__(ColocationResult)
    result.__dict__ = state
    return result


#: Run knobs that must be finite and > 0.
_POSITIVE_KNOBS = ("load_fraction", "decision_interval", "monitor_epoch", "horizon")


def check_run_knobs(knobs) -> None:
    """Raise ``ValueError`` naming the first malformed run knob of ``knobs``.

    ``knobs`` is anything with :class:`ColocationConfig`'s timing and load
    attributes (a config or a sweep scenario).  A NaN horizon would run no
    epoch and report QoS met, and a zero epoch divides by zero mid-run, so
    both must fail where the experiment is declared.
    """
    for name in _POSITIVE_KNOBS:
        value = getattr(knobs, name)
        if not (_is_real(value) and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if knobs.load_fraction > MAX_LOAD_FRACTION:
        raise ValueError(
            f"load_fraction must be at most {MAX_LOAD_FRACTION:g} "
            f"(a fraction of saturation), got {knobs.load_fraction!r}"
        )


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class ColocationConfig:
    """Knobs of one colocation experiment that the engine reads.

    Policy knobs (the slack threshold) belong to the policy; a sweep
    scenario carries both and hands each to its reader.
    """

    load_fraction: float = 0.775
    decision_interval: float = 1.0
    monitor_epoch: float = 0.1
    horizon: float = 400.0
    seed: int = 0
    stop_when_apps_done: bool = True

    def __post_init__(self) -> None:
        check_run_knobs(self)


class ColocationEngine:
    """Runs one colocation experiment to completion."""

    def __init__(
        self,
        service: InteractiveService,
        apps: list[tuple[ApproximableApp, ApproxLadder]],
        policy: RuntimePolicy,
        config: ColocationConfig | None = None,
        platform: Platform | None = None,
        loadgen: LoadGenerator | None = None,
    ) -> None:
        if not apps:
            raise ValueError("a colocation needs at least one approximate app")
        self._service = service
        self._policy = policy
        self._config = config or ColocationConfig()
        self._platform = platform or default_platform()
        self._node = ServerNode(self._platform)
        self._normals = _standard_normals(
            child_generator(self._config.seed, f"engine/{service.name}")
        )
        self._now = 0.0

        shares = self._node.fair_allocation(len(apps))
        qps_ref = self._config.load_fraction * service.saturation_qps(shares[0])
        self._loadgen = loadgen or ConstantLoad(qps_ref)
        self._offered_reference = qps_ref

        self._service_tenant = Tenant(
            name=service.name,
            kind=TenantKind.INTERACTIVE,
            profile=service.profile(qps_ref, shares[0]),
            cores=shares[0],
        )
        self._node.add_tenant(self._service_tenant)

        self._apps: dict[str, AppSim] = {}
        for (app, ladder), cores in zip(apps, shares[1:]):
            tenant = Tenant(
                name=app.name,
                kind=TenantKind.APPROXIMATE,
                profile=app.metadata.profile,
                cores=cores,
            )
            self._node.add_tenant(tenant)
            instrumented = policy.requires_instrumentation
            sim = AppSim(
                app=app,
                ladder=ladder,
                tenant=tenant,
                instrumented=instrumented,
                instrumentation_factor=(
                    1.0 + app.metadata.dynrio_overhead if instrumented else 1.0
                ),
            )
            tenant.set_profile(sim.active_profile())
            self._apps[app.name] = sim
        self._sims = list(self._apps.values())
        self._running = len(self._sims)

        self._monitor = PerformanceMonitor(qos=service.qos)
        # Unserved requests of saturation episodes, as a BacklogTracker
        # would hold them.
        self._backlog = 0.0
        self._actuator = Actuator(self)
        self._inflation_ema = 1.0
        # Tail-latency effects of an allocation or variant change develop
        # over cache-refill / queue-drain timescales (~1 s), not instantly.
        self._inflation_alpha = min(
            1.0, self._config.monitor_epoch / _INFLATION_TIME_CONSTANT
        )

        # The contention plan of the current configuration (`None` once a
        # level switch, core move or finish changed it), last evaluated at
        # `_plan_qps` into `_raw_inflation` and each running app's
        # `AppSim.exec_time`.  An interval keeps all three in locals.
        qps = self._loadgen.qps_at(self._now)
        self._plan: ContentionPlan | None = self._build_plan(qps)
        self._raw_inflation = self._plan.evaluate(qps)
        self._plan_qps: float | None = qps
        # The running apps' arbiter views (`None` once a level switch, core
        # move or finish changed one), and every app's (level, cores) as
        # they were before the decision interval's first actuation (`None`
        # until one happens).
        self._views: tuple[AppView, ...] | None = None
        self._before: tuple | None = None

    # -- facade used by the actuator -------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def service_cores(self) -> int:
        return self._service_tenant.cores

    def running_app_names(self) -> list[str]:
        return sorted(n for n, sim in self._apps.items() if not sim.finished)

    def app_sim(self, name: str) -> AppSim:
        return self._apps[name]

    def running_views(self) -> tuple[AppView, ...]:
        """:meth:`arbiter_view` of every running app, in name order.

        Built when first asked for after a level switch, a core move or an
        app finishing, and kept until the next one.
        """
        views = self._views
        if views is None:
            views = self._views = tuple(
                self.arbiter_view(name) for name in self.running_app_names()
            )
        return views

    def arbiter_view(self, name: str) -> AppView:
        sim = self._apps[name]
        return AppView(
            name=name,
            level=sim.level,
            max_level=sim.ladder.max_level,
            cores=sim.tenant.cores,
            nominal_cores=sim.tenant.nominal_cores,
            level_inaccuracies=sim.level_inaccuracies,
            level_traffic_rates=sim.level_traffic_rates,
        )

    def apply_level(self, name: str, level: int) -> None:
        telemetry = get_recorder()
        tick = telemetry.now() if telemetry.enabled else 0.0
        sim = self._apps[name]
        if self._before is None:
            self._before = self._action_fingerprint()
        sim.level = level
        sim.level_trace.append((self._now, level))
        sim.tenant.set_profile(sim.active_profile())
        self._plan = None
        self._views = None
        if telemetry.enabled:
            telemetry.observe("runtime.actuator_s", telemetry.now() - tick)
            telemetry.count("runtime.level_changes")

    def move_core(self, name: str, to_service: bool) -> None:
        telemetry = get_recorder()
        tick = telemetry.now() if telemetry.enabled else 0.0
        if self._before is None:
            self._before = self._action_fingerprint()
        if to_service:
            self._node.reclaim_core(name, self._service.name)
        else:
            self._node.reclaim_core(self._service.name, name)
        self._plan = None
        self._views = None
        if telemetry.enabled:
            telemetry.observe("runtime.actuator_s", telemetry.now() - tick)
            telemetry.count("runtime.core_moves")

    # -- simulation --------------------------------------------------------

    def run(self) -> ColocationResult:
        cfg = self._config
        dt = cfg.monitor_epoch
        horizon = cfg.horizon
        stop_when_done = cfg.stop_when_apps_done
        epochs_per_interval = max(1, int(round(cfg.decision_interval / dt)))
        qps_at = self._loadgen.qps_at
        normals = self._normals
        monitor = self._monitor
        record = monitor.record
        curve = self._service.curve
        base_p99 = curve.params.base_p99
        amplitude = curve.amplitude
        max_utilization = curve.params.max_utilization
        noise_sigma = curve.params.noise_sigma
        alpha = self._inflation_alpha
        sims = self._sims
        now = self._now
        inflation = self._inflation_ema
        backlog = self._backlog
        running = self._running
        # `plan` is `self._plan`, None after an app finishes or the policy
        # acts until it is rebuilt; `raw_inflation` is its value at
        # `plan_qps`, which is None until it is evaluated; `noise_qps` is
        # the QPS `sigma` is for.
        plan_qps = self._plan_qps
        raw_inflation = self._raw_inflation
        noise_qps = None
        sigma = log_mean = 0.0

        times: list[float] = []
        p99s: list[float] = []
        # Per interval: the epochs it ran, the cores and levels it held
        # (they move only between intervals), its observation and action.
        ran_counts: list[int] = []
        service_cores: list[int] = []
        app_traces = [(sim, [], [], sim.tenant.cores) for sim in sims]
        observations: list[IntervalObservation] = []
        summaries: list[str] = []

        # Phase timings use the recorder's injected clock, never simulation
        # time; an uninstrumented run pays one bool check per phase.
        telemetry = get_recorder()
        instrumented = telemetry.enabled
        tick = 0.0

        epoch_index = 0
        while now < horizon:
            if instrumented:
                tick = telemetry.now()
            # Only the policy, between intervals, changes the plan's
            # saturation throughput and the monitor's sampling rule.
            plan = self._plan
            saturation = 0.0 if plan is None else plan.saturation_qps
            every_epoch = monitor.samples_every_epoch
            ran = 0
            while ran < epochs_per_interval and now < horizon:
                qps = qps_at(now)
                if plan is None:
                    plan = self._build_plan(qps)
                    plan_qps = None
                    saturation = plan.saturation_qps
                if qps != plan_qps:
                    raw_inflation = plan.evaluate(qps)
                    plan_qps = qps
                if qps != noise_qps:
                    if qps < 0:
                        raise ValueError("qps must be non-negative")
                    requests_observed = max(qps * dt, 10.0)
                    sigma = noise_sigma * (1.0 + 30.0 / math.sqrt(requests_observed))
                    log_mean = -0.5 * sigma * sigma
                    noise_qps = qps

                inflation += alpha * (raw_inflation - inflation)
                capacity = saturation / inflation
                backlog = max(0.0, backlog + (qps - capacity) * dt)
                penalty = 0.0 if capacity <= 0 else backlog / capacity
                utilization = qps * inflation / saturation
                if utilization < 0:
                    raise ValueError("utilization must be non-negative")
                u = min(utilization, max_utilization)
                sample = (base_p99 + amplitude * u / (1.0 - u) + penalty) * math.exp(
                    log_mean + sigma * next(normals)
                )
                if every_epoch or epoch_index % 2 == 0:
                    record(sample)

                for sim in sims:
                    if not sim.finished:
                        if plan is None:
                            # An app advanced earlier in this epoch finished.
                            plan = self._build_plan(qps)
                            raw_inflation = plan.evaluate(qps)
                            plan_qps = qps
                        if sim.advance(dt, now):
                            running -= 1
                            self._plan = plan = None
                            self._views = None

                times.append(now)
                p99s.append(sample)
                now += dt
                epoch_index += 1
                ran += 1
                if stop_when_done and not running:
                    break

            self._now = now
            ran_counts.append(ran)
            service_cores.append(self._service_tenant.cores)
            for sim, levels, cores, _ in app_traces:
                levels.append(sim.level)
                cores.append(sim.tenant.cores)
            if ran < epochs_per_interval:
                break  # at the horizon, or every app is done
            obs = monitor.close_interval(now)
            observations.append(obs)
            if instrumented:
                telemetry.observe("runtime.monitor_phase_s", telemetry.now() - tick)
                tick = telemetry.now()
            self._before = None
            self._policy.on_interval(obs, self._actuator)
            summaries.append(self._describe_action())
            if instrumented:
                telemetry.observe("runtime.policy_phase_s", telemetry.now() - tick)
            if stop_when_done and not running:
                break

        self._inflation_ema = inflation
        self._backlog = backlog
        self._running = running
        self._plan_qps = plan_qps
        self._raw_inflation = raw_inflation
        counts = np.array(ran_counts, dtype=np.int64)

        def per_epoch(values: list[int]) -> np.ndarray:
            return np.repeat(np.array(values, dtype=np.int64), counts)

        outcomes = []
        for sim, _, cores, start in app_traces:
            fewest = min([start, *cores])
            outcomes.append(
                AppOutcome(
                    name=sim.name,
                    finish_time=sim.finish_time,
                    inaccuracy_pct=self._final_inaccuracy(sim),
                    switches=len(sim.level_trace),
                    min_cores=fewest,
                    max_reclaimed=max(0, sim.tenant.nominal_cores - fewest),
                    level_trace=list(sim.level_trace),
                )
            )
        interval_columns = [list(map(get, observations)) for get in _OBSERVATION_GETTERS]
        state = dict(
            service_name=self._service.name,
            policy_name=self._policy.name,
            qos=self._service.qos,
            epoch_times=np.array(times, dtype=np.float64),
            epoch_p99=np.array(p99s, dtype=np.float64),
            epoch_service_cores=per_epoch(service_cores),
            epoch_app_levels={sim.name: per_epoch(v) for sim, v, _, _ in app_traces},
            epoch_app_cores={sim.name: per_epoch(v) for sim, _, v, _ in app_traces},
            apps=outcomes,
            offered_qps=self._offered_reference,
        )
        return _columnar_result(state, [*interval_columns, summaries])

    # -- internals --------------------------------------------------------

    def _build_plan(self, qps: float) -> ContentionPlan:
        """Plan the current configuration, the service's profile taken at
        ``qps``; the plan is not yet evaluated."""
        service_tenant = self._service_tenant
        service_tenant.set_profile(self._service.profile(qps, service_tenant.cores))
        self._plan = ContentionPlan(
            self._platform, self._service, service_tenant, self._sims
        )
        return self._plan

    def _final_inaccuracy(self, sim: AppSim) -> float:
        inaccuracy = sim.inaccuracy_integral
        if sim.elided_progress > 0:
            # Synchronization elision is racy: the realized quality loss
            # jitters around the measured value for the elided spans.
            noise = _ELISION_QUALITY_SIGMA * next(self._normals)
            inaccuracy += abs(noise) * sim.elided_progress
        return float(max(0.0, inaccuracy))

    def _action_fingerprint(self) -> tuple:
        return tuple(
            (sim.level, sim.tenant.cores) for sim in self._apps.values()
        )

    def _describe_action(self) -> str:
        """What the interval's actuations changed, against the snapshot the
        first of them took; ``"hold"`` when none ran or they cancelled out."""
        before = self._before
        if before is None:
            return "hold"
        after = self._action_fingerprint()
        if before == after:
            return "hold"
        parts = []
        for (lvl0, c0), (lvl1, c1), name in zip(
            before, after, self._apps.keys()
        ):
            if lvl1 != lvl0:
                parts.append(f"{name}: level {lvl0}->{lvl1}")
            if c1 != c0:
                parts.append(f"{name}: cores {c0}->{c1}")
        return "; ".join(parts)
