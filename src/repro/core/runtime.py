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
progress move.  The loop keeps in locals what an interval cannot change —
the saturation throughput, the latency curve's constants and the
monitor's sampling rule — and the latency noise's sigma, recomputed only
when the offered QPS changes.  Each epoch it:

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

The per-epoch service-core and per-app level and core traces are
extended once per interval, and a count of running apps ends a run whose
apps are all done.

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
time — in straight-line arithmetic, summing in the order a fresh
:meth:`ServerNode.pressure_on` would, so results are bit-identical to
recomputing everything every epoch.  The service tenant's profile is
refreshed when the plan is built; between builds, the service's demand
that depends on QPS lives in the plan, not in its tenant.  Each ladder
level's resource profile, time factor, traffic rate and inaccuracy are
built once, with the engine, as are the inflation smoothing factor and
the list of app simulations the loop walks.

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
from collections.abc import Iterator
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from repro.apps.base import ApproximableApp
from repro.config import RuntimeDefaults
from repro.core.actuator import Actuator
from repro.core.arbiter import AppView
from repro.core.monitor import IntervalObservation, PerformanceMonitor
from repro.core.policy import RuntimePolicy
from repro.dynrio.binary import FatBinary
from repro.dynrio.instrument import Instrumentor
from repro.dynrio.overhead import OverheadModel
from repro.dynrio.signals import SignalBus
from repro.search.ladder import ApproxLadder
from repro.rng import child_generator
from repro.server.interference import (
    PressureBreakdown,
    bandwidth,
    llc_pressure,
    marginal,
    overload,
    utilization,
)
from repro.server.node import ServerNode
from repro.server.platform import Platform, default_platform
from repro.server.resources import ResourceProfile, total_membw
from repro.server.tenant import Tenant, TenantKind
from repro.services.base import InteractiveService
from repro.services.loadgen import ConstantLoad, LoadGenerator
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
    instrumentor: Instrumentor | None = None
    level: int = 0
    progress: float = 0.0
    pause_remaining: float = 0.0
    finished: bool = False
    finish_time: float | None = None
    inaccuracy_integral: float = 0.0
    elided_progress: float = 0.0
    level_trace: list[tuple[float, int]] = field(default_factory=list)
    #: Multiplier on execution time while instrumented (1.0 otherwise).
    instrumentation_factor: float = 1.0
    #: Per-level constants, built once from the ladder.
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
        base = self.app.metadata.profile
        self.level_profiles = tuple(v.scaled_profile(base) for v in self.ladder.levels)
        self.level_time_factors = tuple(v.time_factor for v in self.ladder.levels)
        self.level_inaccuracies = tuple(v.inaccuracy_pct for v in self.ladder.levels)
        self.level_traffic_rates = tuple(
            v.traffic_rate_factor for v in self.ladder.levels
        )
        self.level_elides = tuple(
            any(value is True for value in v.spec.values()) for v in self.ladder.levels
        )
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
    bandwidths in tenant order.  :meth:`evaluate` computes the rest in
    straight-line arithmetic.

    Sums keep the operands and order of :meth:`ServerNode.pressure_on`:
    aggressors are added from 0.0 in tenant order, the service first when
    the victim is an app, so every value equals a fresh computation bit
    for bit.  ``sims`` are the apps in tenant order, and the service
    tenant's profile must be current for its cores; its load only moves
    the terms :meth:`evaluate` recomputes.
    """

    __slots__ = (
        "saturation_qps",
        "_demand",
        "_inflation",
        "_cores",
        "_memory_bandwidth",
        "_disk_bandwidth",
        "_network_bandwidth",
        "_llc",
        "_apps_membw",
        "_apps_disk",
        "_apps_network",
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
        self.saturation_qps = service.saturation_qps(cores)
        self._demand = service.demand
        self._inflation = service.sensitivity.inflation
        self._cores = cores
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

    def evaluate(self, qps: float) -> tuple[PressureBreakdown, float]:
        """The pressure on the service and its raw inflation at ``qps``;
        sets each running app's ``exec_time``."""
        cores = self._cores
        cpu_fraction, membw_per_core, disk_bw, network_bw = self._demand(
            qps, cores, self.saturation_qps
        )
        service_bw = total_membw(membw_per_core, cores, cpu_fraction)
        memory_bandwidth = self._memory_bandwidth
        membw_linear, membw_overload = bandwidth(
            service_bw, self._apps_membw, memory_bandwidth
        )
        disk_linear, disk_overload = bandwidth(
            disk_bw, self._apps_disk, self._disk_bandwidth
        )
        network_linear, network_overload = bandwidth(
            network_bw, self._apps_network, self._network_bandwidth
        )
        pressure = PressureBreakdown(
            self._llc,
            membw_linear,
            membw_overload,
            disk_linear + disk_overload,
            network_linear + network_overload,
        )
        for sim, base, half_llc, own_bw, own_util, own_overload, others in self._apps:
            membw = 0.0
            membw += service_bw
            for other_bw in others:
                membw += other_bw
            linear, overloaded = marginal(
                own_util, own_overload, utilization(own_bw + membw, memory_bandwidth)
            )
            sim.exec_time = base * (
                1.0 + _APP_PRESSURE_SENSITIVITY * (half_llc + linear + overloaded)
            )
        return pressure, self._inflation(pressure)


@dataclass
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


@dataclass
class IntervalRecord:
    """One decision interval's observation and the action taken."""

    observation: IntervalObservation
    action_summary: str


@dataclass
class ColocationResult:
    """Everything a benchmark needs from one run."""

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
        if not self.intervals:
            return 1.0
        met = sum(1 for r in self.intervals if r.observation.qos_met)
        return met / len(self.intervals)

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


#: Run knobs that must be finite and > 0; ``slack_threshold`` may be 0.
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
    value = knobs.slack_threshold
    if not (_is_real(value) and math.isfinite(value) and value >= 0):
        raise ValueError(f"slack_threshold must be finite and >= 0, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class ColocationConfig:
    """Knobs of one colocation experiment."""

    load_fraction: float = 0.775
    decision_interval: float = 1.0
    monitor_epoch: float = 0.1
    slack_threshold: float = 0.10
    horizon: float = 400.0
    seed: int = 0
    stop_when_apps_done: bool = True

    def __post_init__(self) -> None:
        check_run_knobs(self)

    @classmethod
    def from_defaults(cls, defaults: RuntimeDefaults) -> "ColocationConfig":
        return cls(
            load_fraction=defaults.load_fraction,
            decision_interval=defaults.decision_interval,
            monitor_epoch=defaults.monitor_epoch,
            slack_threshold=defaults.slack_threshold,
        )


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
        self._overhead = OverheadModel()
        self._bus = SignalBus()
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
            instrumentor = None
            if policy.requires_instrumentation:
                instrumentor = Instrumentor(
                    FatBinary(app, ladder), self._bus, process=app.name
                )
            sim = AppSim(
                app=app,
                ladder=ladder,
                tenant=tenant,
                instrumentor=instrumentor,
                instrumentation_factor=(
                    self._overhead.instrumentation_factor(app.metadata)
                    if policy.requires_instrumentation
                    else 1.0
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
        self._actuator = Actuator(self, overhead=self._overhead)
        self._inflation_ema = 1.0
        # Tail-latency effects of an allocation or variant change develop
        # over cache-refill / queue-drain timescales (~1 s), not instantly.
        self._inflation_alpha = min(
            1.0, self._config.monitor_epoch / _INFLATION_TIME_CONSTANT
        )

        # The contention plan of the current configuration (`None` once a
        # level switch, core move or finish changed it), evaluated at
        # `_physics_qps` into `_service_pressure`, `_raw_inflation` and each
        # running app's `AppSim.exec_time`.
        self._plan: ContentionPlan | None = None
        self._build_plan(self._loadgen.qps_at(self._now))

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
        if sim.instrumentor is not None:
            sim.instrumentor.request_level(level)
        sim.level = level
        sim.level_trace.append((self._now, level))
        sim.tenant.set_profile(sim.active_profile())
        self._plan = None
        if telemetry.enabled:
            telemetry.observe("runtime.actuator_s", telemetry.now() - tick)
            telemetry.count("runtime.level_changes")

    def move_core(self, name: str, to_service: bool) -> None:
        telemetry = get_recorder()
        tick = telemetry.now() if telemetry.enabled else 0.0
        if to_service:
            self._node.reclaim_core(name, self._service.name)
        else:
            self._node.reclaim_core(self._service.name, name)
        self._plan = None
        if telemetry.enabled:
            telemetry.observe("runtime.actuator_s", telemetry.now() - tick)
            telemetry.count("runtime.core_moves")

    # -- simulation --------------------------------------------------------

    def run(self) -> ColocationResult:
        cfg = self._config
        epochs_per_interval = max(1, int(round(cfg.decision_interval / cfg.monitor_epoch)))
        times: list[float] = []
        p99s: list[float] = []
        service_cores: list[int] = []
        app_levels: dict[str, list[int]] = {n: [] for n in self._apps}
        app_cores: dict[str, list[int]] = {n: [] for n in self._apps}
        app_traces = [
            (sim, app_levels[n], app_cores[n]) for n, sim in self._apps.items()
        ]
        intervals: list[IntervalRecord] = []
        start_cores = {n: sim.tenant.cores for n, sim in self._apps.items()}

        # Phase timings (monitor epochs vs. policy decisions vs. actuator
        # work) are the profile that justifies the tensorization refactor.
        # The recorder's injected clock is the only clock named here —
        # simulation time (`self._now`) stays untouched, and everything
        # below is guarded so an uninstrumented run pays one bool check per
        # interval.
        telemetry = get_recorder()
        instrumented = telemetry.enabled
        tick = 0.0

        epoch_index = 0
        while self._now < cfg.horizon:
            if instrumented:
                tick = telemetry.now()
            ran = self._run_interval(epoch_index, epochs_per_interval, times, p99s)
            epoch_index += ran
            # Cores and levels move only between intervals.
            service_cores.extend([self._service_tenant.cores] * ran)
            for sim, levels, cores in app_traces:
                levels.extend([sim.level] * ran)
                cores.extend([sim.tenant.cores] * ran)
            if ran < epochs_per_interval:
                break  # at the horizon, or every app is done
            obs = self._monitor.close_interval(self._now)
            if instrumented:
                telemetry.observe("runtime.monitor_phase_s", telemetry.now() - tick)
                tick = telemetry.now()
            before = self._action_fingerprint()
            self._policy.on_interval(obs, self._actuator)
            summary = self._describe_action(before)
            if instrumented:
                telemetry.observe("runtime.policy_phase_s", telemetry.now() - tick)
            intervals.append(IntervalRecord(observation=obs, action_summary=summary))
            if cfg.stop_when_apps_done and not self._running:
                break

        # Every epoch records each app's cores after it ran, so the fewest
        # cores an app held is the least of those and its start allocation.
        min_cores = {n: min([start_cores[n], *app_cores[n]]) for n in self._apps}
        outcomes = [
            AppOutcome(
                name=name,
                finish_time=sim.finish_time,
                inaccuracy_pct=self._final_inaccuracy(sim),
                switches=(
                    sim.instrumentor.switches if sim.instrumentor is not None else 0
                ),
                min_cores=min_cores[name],
                max_reclaimed=max(0, sim.tenant.nominal_cores - min_cores[name]),
                level_trace=list(sim.level_trace),
            )
            for name, sim in self._apps.items()
        ]
        return ColocationResult(
            service_name=self._service.name,
            policy_name=self._policy.name,
            qos=self._service.qos,
            epoch_times=np.asarray(times),
            epoch_p99=np.asarray(p99s),
            epoch_service_cores=np.asarray(service_cores),
            epoch_app_levels={n: np.asarray(v) for n, v in app_levels.items()},
            epoch_app_cores={n: np.asarray(v) for n, v in app_cores.items()},
            intervals=intervals,
            apps=outcomes,
            offered_qps=self._offered_reference,
        )

    # -- internals --------------------------------------------------------

    def _build_plan(self, qps: float) -> None:
        """Plan the current configuration and evaluate it at ``qps``."""
        service_tenant = self._service_tenant
        service_tenant.set_profile(self._service.profile(qps, service_tenant.cores))
        self._plan = ContentionPlan(
            self._platform, self._service, service_tenant, self._sims
        )
        self._evaluate(qps)

    def _evaluate(self, qps: float) -> None:
        self._service_pressure, self._raw_inflation = self._plan.evaluate(qps)
        self._physics_qps = qps

    def _run_interval(
        self, epoch_index: int, epochs: int, times: list[float], p99s: list[float]
    ) -> int:
        """Run the ``epochs`` monitor epochs of one decision interval,
        numbered from ``epoch_index`` on; return how many ran.

        Fewer run when the horizon comes first or, in a run that stops with
        its apps, once the last app finished.  Every epoch appends its start
        time to ``times`` and its latency observation to ``p99s``.
        """
        cfg = self._config
        dt = cfg.monitor_epoch
        horizon = cfg.horizon
        stop_when_done = cfg.stop_when_apps_done
        qps_at = self._loadgen.qps_at
        normals = self._normals
        record = self._monitor.record
        every_epoch = self._monitor.samples_every_epoch
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
        # `plan` is None until the plan's terms are in locals, and again
        # after an app finishes; `noise_qps` is the QPS `sigma` is for.
        plan = None
        noise_qps = None
        saturation = raw_inflation = sigma = log_mean = 0.0

        ran = 0
        while ran < epochs and now < horizon:
            qps = qps_at(now)
            if plan is None:
                if self._plan is None:
                    self._build_plan(qps)
                elif qps != self._physics_qps:
                    self._evaluate(qps)
                plan = self._plan
                saturation = plan.saturation_qps
                raw_inflation = self._raw_inflation
            elif qps != self._physics_qps:
                self._evaluate(qps)
                raw_inflation = self._raw_inflation
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
                    if self._plan is None:
                        # An app advanced earlier in this epoch finished.
                        self._build_plan(qps)
                    if sim.advance(dt, now):
                        running -= 1
                        self._plan = plan = None

            times.append(now)
            p99s.append(sample)
            now += dt
            epoch_index += 1
            ran += 1
            if stop_when_done and not running:
                break

        self._now = now
        self._inflation_ema = inflation
        self._backlog = backlog
        self._running = running
        return ran

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

    def _describe_action(self, before: tuple) -> str:
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
