"""Epoch-loop invariants over small random scenarios (hypothesis).

Whatever the service, mix, load shape, policy and timing: cores are
conserved every epoch, levels stay within each app's ladder, each app's
progress only grows and stays within [0, 1], the per-app core statistics
in :class:`~repro.core.runtime.AppOutcome` agree with the per-epoch core
trace they are derived from, and every full decision interval leaves one
consistent :class:`~repro.core.runtime.IntervalRecord`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_engine
from repro.core import ImpactAwareArbiter, PliantPolicy, PrecisePolicy
from repro.core.runtime import ColocationConfig

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
