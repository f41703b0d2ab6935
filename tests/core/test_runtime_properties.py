"""Epoch-loop invariants over small random scenarios (hypothesis).

Whatever the service, mix, load shape, policy and timing: cores are
conserved every epoch, levels stay within each app's ladder, each app's
progress only grows and stays within [0, 1], the per-app core statistics
in :class:`~repro.core.runtime.AppOutcome` agree with the per-epoch core
trace they are derived from, and every full decision interval leaves one
consistent :class:`~repro.core.runtime.IntervalRecord`.  And at every
epoch the engine's contention — the service's pressure and raw inflation,
each running app's execution time — equals a fresh
:class:`~repro.server.node.ServerNode` computation over the tenants as
they stand, the service's profile taken at the epoch's QPS.

The engine runs each decision interval as one loop.  Its results are
bit-identical to an epoch-at-a-time reference built from the public
per-epoch methods (:func:`reference_run`), including at the loop's edges:
a horizon or a finish inside an interval, a run past its apps' finish, a
switch pause over several epochs, a non-adaptive monitor and a load step
inside an interval.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_engine
from repro.core import ImpactAwareArbiter, PliantPolicy, PrecisePolicy
from repro.core.runtime import (
    _APP_PRESSURE_SENSITIVITY,
    _INFLATION_TIME_CONSTANT,
    AppOutcome,
    ColocationConfig,
    ColocationResult,
    IntervalRecord,
)
from repro.server.node import ServerNode
from repro.server.platform import registered_platforms
from repro.server.tenant import Tenant, TenantKind
from repro.services.base import BacklogTracker
from repro.services.loadgen import LoadGenerator
from repro.sweep import results_identical

#: Apps with fast kernels, so their ladders are cheap to explore once.
APPS = ("kmeans", "semphy", "raytrace")

POLICIES = {
    "precise": lambda seed: PrecisePolicy(),
    "pliant": lambda seed: PliantPolicy(seed=seed),
    "pliant-impact": lambda seed: PliantPolicy(seed=seed, arbiter=ImpactAwareArbiter()),
}


def load_spec(shape, fraction, horizon):
    """A ``(shape, params)`` loadgen spec peaking near ``fraction``."""
    if shape == "constant":
        return ("constant", {"fraction": fraction})
    if shape == "step":
        return ("step", {"steps": [[0.0, fraction * 0.7], [horizon / 2, fraction]]})
    if shape == "diurnal":
        return ("diurnal", {"low": fraction * 0.5, "high": fraction, "period": 8.0})
    return (
        "bursty",
        {"base": fraction * 0.6, "burst": fraction * 1.1, "period": 4.0, "duration": 1.0},
    )


SCENARIO_FIELDS = {
    "service": st.sampled_from(["nginx", "memcached", "mongodb"]),
    "apps": st.lists(st.sampled_from(APPS), min_size=1, max_size=3, unique=True),
    "shape": st.sampled_from(["constant", "step", "diurnal", "bursty"]),
    "fraction": st.floats(min_value=0.3, max_value=1.0),
    "policy": st.sampled_from(sorted(POLICIES)),
    "horizon": st.floats(min_value=0.5, max_value=20.0),
    "monitor_epoch": st.sampled_from([0.05, 0.1, 0.2]),
    "decision_interval": st.sampled_from([0.5, 1.0, 2.0]),
    "seed": st.integers(min_value=0, max_value=2**16),
}
scenarios = st.fixed_dictionaries(SCENARIO_FIELDS)


class EpochStarts(LoadGenerator):
    """The engine's load generator, calling ``hook(qps)`` whenever the
    engine samples the load: once at the start of every epoch."""

    def __init__(self, inner: LoadGenerator, hook) -> None:
        self.inner = inner
        self.hook = hook

    def qps_at(self, time: float) -> float:
        qps = self.inner.qps_at(time)
        self.hook(qps)
        return qps


def record_progress(engine, sims):
    """Each app's progress after every epoch, in epoch order.

    Call the returned function after the run to get the trace: each epoch
    start records the progress the epoch before it left.
    """
    starts = []
    engine._loadgen = EpochStarts(
        engine._loadgen, lambda qps: starts.append({n: s.progress for n, s in sims.items()})
    )

    def trace():
        after = [*starts[1:], {n: s.progress for n, s in sims.items()}]
        return {name: [epoch[name] for epoch in after] for name in sims}

    return trace


@settings(max_examples=50, deadline=None)
@given(scenario=scenarios)
def test_epoch_loop_invariants(scenario):
    engine = build_engine(
        scenario["service"],
        scenario["apps"],
        POLICIES[scenario["policy"]](scenario["seed"]),
        config=ColocationConfig(
            seed=scenario["seed"],
            horizon=scenario["horizon"],
            monitor_epoch=scenario["monitor_epoch"],
            decision_interval=scenario["decision_interval"],
        ),
        loadgen_spec=load_spec(scenario["shape"], scenario["fraction"], scenario["horizon"]),
    )
    sims = {name: engine.app_sim(name) for name in scenario["apps"]}
    start = {name: sim.tenant.cores for name, sim in sims.items()}
    allocated = engine.service_cores + sum(start.values())
    progress_trace = record_progress(engine, sims)

    result = engine.run()
    progress = progress_trace()

    epoch_cores = result.epoch_service_cores + sum(
        result.epoch_app_cores[name] for name in sims
    )
    assert (epoch_cores == allocated).all()
    for name, sim in sims.items():
        levels = result.epoch_app_levels[name]
        assert ((levels >= 0) & (levels <= sim.ladder.max_level)).all()
        outcome = result.app_outcome(name)
        assert outcome.min_cores == min([start[name], *result.epoch_app_cores[name].tolist()])
        assert outcome.max_reclaimed == max(0, sim.tenant.nominal_cores - outcome.min_cores)
        assert (outcome.finish_time is not None) == sim.finished == outcome.completed
        trace = progress[name]
        assert len(trace) == len(result.epoch_times)
        assert all(0.0 <= p <= 1.0 for p in trace)
        assert all(a <= b for a, b in zip([0.0, *trace], trace))
        assert sim.finished == (trace[-1] >= 1.0 - 1e-12)

    epoch = scenario["monitor_epoch"]
    per_interval = max(1, round(scenario["decision_interval"] / epoch))
    assert len(result.intervals) == len(result.epoch_times) // per_interval
    times = [record.observation.time for record in result.intervals]
    assert all(a < b for a, b in zip(times, times[1:]))
    for index, record in enumerate(result.intervals):
        obs = record.observation
        # Closed right after the interval's last epoch.
        assert obs.time == result.epoch_times[(index + 1) * per_interval - 1] + epoch
        # Adaptive sampling takes every epoch or every even-indexed one.
        assert per_interval // 2 <= obs.sample_count <= per_interval
        assert obs.qos == result.qos
        assert obs.qos_met == (obs.p99 <= obs.qos)
    assert result.qos_met == (result.aggregate_p99 <= result.qos)


def fresh_node(engine, qps):
    """A new node holding the engine's tenants, the service's at ``qps``."""
    service = engine._service
    node = ServerNode(engine._platform)
    cores = engine.service_cores
    node.add_tenant(
        Tenant(service.name, TenantKind.INTERACTIVE, service.profile(qps, cores), cores)
    )
    for sim in engine._sims:
        node.add_tenant(
            Tenant(sim.name, TenantKind.APPROXIMATE, sim.active_profile(), sim.tenant.cores)
        )
    return node


def expected_exec_time(engine, sim, qps):
    """``sim``'s execution time against :func:`fresh_node` at ``qps``."""
    pressure = fresh_node(engine, qps).pressure_on(sim.name)
    metadata = sim.app.metadata
    p = metadata.parallel_fraction
    amdahl_now = (1.0 - p) + p / max(sim.tenant.cores, 1)
    expected = metadata.nominal_exec_time * amdahl_now / sim.amdahl_nominal
    expected *= sim.level_time_factors[sim.level]
    expected *= sim.instrumentation_factor
    expected *= 1.0 + _APP_PRESSURE_SENSITIVITY * (
        0.5 * pressure.llc + pressure.membw_linear + pressure.membw_overload
    )
    return expected


def check_contention_every_epoch(engine):
    """Compare the engine's contention with :func:`fresh_node` as it runs.

    The service is checked when the engine draws the epoch's latency
    noise, each app just before it advances.  Returns counts of the
    checks made, among them those of apps advanced after another app
    finished in the same epoch.
    """
    service = engine._service
    checks = {"service": 0, "app": 0, "app_after_finish": 0}
    epoch = {"qps": 0.0, "unsampled": False, "finished": False}

    def epoch_start(qps):
        epoch.update(qps=qps, unsampled=True, finished=False)

    def checked_normals(normals):
        for z in normals:
            # The draws after the last epoch (elision noise) sample nothing.
            if epoch["unsampled"]:
                epoch["unsampled"] = False
                fresh = fresh_node(engine, epoch["qps"]).pressure_on(service.name)
                assert engine._service_pressure == fresh
                assert engine._raw_inflation == service.sensitivity.inflation(fresh)
                checks["service"] += 1
            yield z

    def checked_advance(sim):
        advance = sim.advance

        def checked(dt, now):
            assert sim.exec_time == expected_exec_time(engine, sim, epoch["qps"]), sim.name
            checks["app"] += 1
            checks["app_after_finish"] += epoch["finished"]
            finished = advance(dt, now)
            epoch["finished"] |= sim.finished
            return finished

        return checked

    engine._loadgen = EpochStarts(engine._loadgen, epoch_start)
    engine._normals = checked_normals(engine._normals)
    for sim in engine._sims:
        sim.advance = checked_advance(sim)
    return checks


@settings(max_examples=25, deadline=None)
@given(
    scenario=scenarios,
    platform=st.sampled_from(registered_platforms()),
    horizon=st.floats(min_value=1.0, max_value=45.0),
)
def test_contention_matches_fresh_node_every_epoch(scenario, platform, horizon):
    engine = build_engine(
        scenario["service"],
        scenario["apps"],
        POLICIES[scenario["policy"]](scenario["seed"]),
        config=ColocationConfig(
            seed=scenario["seed"],
            horizon=horizon,
            monitor_epoch=scenario["monitor_epoch"],
            decision_interval=scenario["decision_interval"],
        ),
        platform=platform,
        loadgen_spec=load_spec(scenario["shape"], scenario["fraction"], horizon),
    )
    checks = check_contention_every_epoch(engine)
    result = engine.run()
    assert checks["service"] == len(result.epoch_times)
    assert checks["app"] >= len(result.epoch_times)


def test_apps_after_a_finish_see_it_idle():
    # kmeans, first in the list, finishes well before the others.
    engine = build_engine(
        "nginx",
        ["kmeans", "semphy", "raytrace"],
        PliantPolicy(seed=7),
        config=ColocationConfig(seed=7),
        loadgen_spec=("diurnal", {"low": 0.4, "high": 1.0, "period": 30.0}),
    )
    checks = check_contention_every_epoch(engine)
    result = engine.run()
    assert all(outcome.completed for outcome in result.apps)
    assert checks["app_after_finish"] >= 2


def reference_run(engine):
    """``engine.run()`` one epoch at a time, through public per-epoch APIs.

    Contention comes from :func:`fresh_node` every epoch, the service's
    latency from :meth:`InteractiveService.sample_p99` and a
    :class:`BacklogTracker`, the monitor's sampling from
    :meth:`PerformanceMonitor.should_sample`; the engine lends only its
    state, its policy's actuator and its result bookkeeping.
    """
    cfg = engine._config
    service, policy, monitor, sims = engine._service, engine._policy, engine._monitor, engine._sims
    dt = cfg.monitor_epoch
    per_interval = max(1, int(round(cfg.decision_interval / dt)))
    alpha = min(1.0, dt / _INFLATION_TIME_CONSTANT)
    backlog = BacklogTracker()
    inflation = 1.0
    times, p99s, service_cores, intervals = [], [], [], []
    levels = {sim.name: [] for sim in sims}
    cores = {sim.name: [] for sim in sims}
    start_cores = {sim.name: sim.tenant.cores for sim in sims}

    epoch_index = 0
    while engine.now < cfg.horizon:
        now = engine.now
        qps = engine._loadgen.qps_at(now)
        svc_cores = engine.service_cores
        pressure = fresh_node(engine, qps).pressure_on(service.name)
        inflation += alpha * (service.sensitivity.inflation(pressure) - inflation)
        capacity = service.saturation_qps(svc_cores) / inflation
        backlog.update(qps, capacity, dt)
        sample = service.sample_p99(
            qps,
            svc_cores,
            pressure,
            next(engine._normals),
            dt,
            backlog_penalty=backlog.penalty(capacity),
            inflation=inflation,
        )
        if monitor.should_sample(epoch_index):
            monitor.record(sample)
        for sim in sims:
            if not sim.finished:
                sim.exec_time = expected_exec_time(engine, sim, qps)
                sim.advance(dt, now)
        times.append(now)
        p99s.append(sample)
        service_cores.append(svc_cores)
        for sim in sims:
            levels[sim.name].append(sim.level)
            cores[sim.name].append(sim.tenant.cores)
        engine._now = now + dt
        epoch_index += 1
        if epoch_index % per_interval == 0:
            obs = monitor.close_interval(engine.now)
            before = engine._action_fingerprint()
            policy.on_interval(obs, engine._actuator)
            intervals.append(IntervalRecord(obs, engine._describe_action(before)))
        if cfg.stop_when_apps_done and all(sim.finished for sim in sims):
            break

    outcomes = []
    for sim in sims:
        fewest = min([start_cores[sim.name], *cores[sim.name]])
        outcomes.append(
            AppOutcome(
                name=sim.name,
                finish_time=sim.finish_time,
                inaccuracy_pct=engine._final_inaccuracy(sim),
                switches=sim.instrumentor.switches if sim.instrumentor else 0,
                min_cores=fewest,
                max_reclaimed=max(0, sim.tenant.nominal_cores - fewest),
                level_trace=list(sim.level_trace),
            )
        )
    return ColocationResult(
        service_name=service.name,
        policy_name=policy.name,
        qos=service.qos,
        epoch_times=np.asarray(times),
        epoch_p99=np.asarray(p99s),
        epoch_service_cores=np.asarray(service_cores),
        epoch_app_levels={n: np.asarray(v) for n, v in levels.items()},
        epoch_app_cores={n: np.asarray(v) for n, v in cores.items()},
        intervals=intervals,
        apps=outcomes,
        offered_qps=engine._offered_reference,
    )


def loop_engine(case):
    """An engine for ``case``: a run of :data:`scenarios` plus the knobs
    that reach the interval loop's edges."""
    engine = build_engine(
        case["service"],
        case["apps"],
        POLICIES[case["policy"]](case["seed"]),
        config=ColocationConfig(
            seed=case["seed"],
            horizon=case["horizon"],
            monitor_epoch=case["monitor_epoch"],
            decision_interval=case["decision_interval"],
            stop_when_apps_done=case["stop_when_apps_done"],
        ),
        loadgen_spec=load_spec(case["shape"], case["fraction"], case["horizon"]),
    )
    engine._monitor.adaptive = case["adaptive"]
    first = engine._sims[0]
    first.progress = case["head_start"]
    first.pause_remaining = case["pause"]
    return engine


loop_cases = st.fixed_dictionaries(
    {
        **SCENARIO_FIELDS,
        "horizon": st.floats(min_value=0.5, max_value=12.0),
        "stop_when_apps_done": st.booleans(),
        "adaptive": st.booleans(),
        "head_start": st.one_of(st.just(0.0), st.floats(min_value=0.8, max_value=0.99)),
        "pause": st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
    }
)

BASE_CASE = {
    "service": "memcached",
    "apps": ["kmeans", "raytrace"],
    "shape": "constant",
    "fraction": 0.8,
    "policy": "pliant",
    "horizon": 6.0,
    "monitor_epoch": 0.1,
    "decision_interval": 1.0,
    "seed": 3,
    "stop_when_apps_done": True,
    "adaptive": True,
    "head_start": 0.0,
    "pause": 0.0,
}

#: The interval loop's edges, each with a check that its case reaches it.
EDGE_CASES = {
    "horizon-mid-interval": (
        {"horizon": 4.35},
        lambda case, result: len(result.epoch_times) % 10 != 0,
    ),
    "keeps-running-after-apps": (
        {"apps": ["kmeans"], "head_start": 0.95, "stop_when_apps_done": False},
        lambda case, result: result.apps[0].finish_time < result.epoch_times[-1],
    ),
    "pause-over-epochs": (
        {"pause": 0.35},
        lambda case, result: case["pause"] > case["monitor_epoch"],
    ),
    "finish-mid-interval": (
        {"head_start": 0.93},
        lambda case, result: result.apps[0].finish_time % case["decision_interval"] > 0.05,
    ),
    "monitor-not-adaptive": (
        {"adaptive": False, "policy": "precise", "fraction": 0.4},
        lambda case, result: all(
            r.observation.sample_count == 10 and abs(r.observation.slack) > 0.25
            for r in result.intervals
        ),
    ),
    "step-mid-interval": (
        {"shape": "step", "horizon": 5.3},
        lambda case, result: case["horizon"] / 2 % case["decision_interval"] > 0.05,
    ),
}


def edge_case(name):
    return {**BASE_CASE, **EDGE_CASES[name][0]}


def edge_examples(test):
    for name in EDGE_CASES:
        test = example(case=edge_case(name))(test)
    return test


@settings(max_examples=100, deadline=None)
@edge_examples
@given(case=loop_cases)
def test_interval_loop_matches_epoch_at_a_time_reference(case):
    assert results_identical(loop_engine(case).run(), reference_run(loop_engine(case)))


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_reaches_its_edge(name):
    case = edge_case(name)
    assert EDGE_CASES[name][1](case, loop_engine(case).run())
