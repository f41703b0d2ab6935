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
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_engine
from repro.core import ImpactAwareArbiter, PliantPolicy, PrecisePolicy
from repro.core.runtime import _APP_PRESSURE_SENSITIVITY, ColocationConfig
from repro.server.node import ServerNode
from repro.server.platform import registered_platforms
from repro.server.tenant import Tenant, TenantKind

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


scenarios = st.fixed_dictionaries(
    {
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
)


def record_progress(engine, sims):
    """Each app's progress after every epoch, in epoch order."""
    trace = {name: [] for name in sims}
    step = engine._step_epoch

    def recording(*args):
        step(*args)
        for name, sim in sims.items():
            trace[name].append(sim.progress)

    engine._step_epoch = recording
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
    progress = record_progress(engine, sims)

    result = engine.run()

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


def check_contention_every_epoch(engine):
    """Compare the engine's contention with :func:`fresh_node` as it runs.

    The service is checked when it samples its latency, each app just
    before it advances.  Returns counts of the checks made, among them
    those of apps advanced after another app finished in the same epoch.
    """
    service = engine._service
    checks = {"service": 0, "app": 0, "app_after_finish": 0}
    epoch = {"qps": 0.0, "finished": False}
    sample_p99 = service.sample_p99
    advance_app = engine._advance_app

    def checked_sample(qps, cores, pressure, *args, **kwargs):
        epoch["qps"], epoch["finished"] = qps, False
        fresh = fresh_node(engine, qps).pressure_on(service.name)
        assert pressure == fresh
        assert engine._raw_inflation == service.sensitivity.inflation(fresh)
        checks["service"] += 1
        return sample_p99(qps, cores, pressure, *args, **kwargs)

    def checked_advance(sim, dt):
        pressure = fresh_node(engine, epoch["qps"]).pressure_on(sim.name)
        metadata = sim.app.metadata
        p = metadata.parallel_fraction
        amdahl_now = (1.0 - p) + p / max(sim.tenant.cores, 1)
        expected = metadata.nominal_exec_time * amdahl_now / sim.amdahl_nominal
        expected *= sim.level_time_factors[sim.level]
        expected *= sim.instrumentation_factor
        expected *= 1.0 + _APP_PRESSURE_SENSITIVITY * (
            0.5 * pressure.llc + pressure.membw_linear + pressure.membw_overload
        )
        assert sim.exec_time == expected, sim.name
        checks["app"] += 1
        checks["app_after_finish"] += epoch["finished"]
        advance_app(sim, dt)
        epoch["finished"] |= sim.finished

    service.sample_p99 = checked_sample
    engine._advance_app = checked_advance
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
