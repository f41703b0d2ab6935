"""The benchmark's workloads, their set-up and their measured passes.

Every workload runs in this one process, serially, on ``SerialBackend``:
one caller in a closed loop, with no worker pool between the benchmark
and the simulator.  The simulation seed is pinned to 2, as in the figure
drivers, so every result can be checked against a pinned digest; the
benchmark's ``--seed`` sets the order in which scenarios (and, for
``explore-cold``, apps) are handed to the program.

Cache state each workload starts from:

* ``fig5-constant`` / ``diurnal-multiapp``: ladders warm (copied from the
  checkout's ladder store into a private exploration cache), result cache
  empty for every pass.
* ``warm-replay``: ladders warm, and a private result cache filled in
  set-up by a cold run of both workloads above; every lookup must hit.
* ``explore-cold``: exploration cache empty for every pass, result cache
  empty for the panel sweep that follows the exploration.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.sweep.cache as sweep_cache
import repro.sweep.engine as sweep_engine
from calibrate import SpeedTrack
from digest import digest
from repro.apps import ALL_APP_NAMES, make_app
from repro.apps.base import ApproximableApp
from repro.cluster import colocation
from repro.core import actuator, monitor, policy, runtime
from repro.experiment import ExperimentSpec, ResultSet, run_experiment
from repro.search.variants import DesignSpaceExplorer
from repro.server import node, resources
from repro.services import base as service_base
from repro.services import loadgen
from repro.sweep import SerialBackend, SweepCache, SweepEngine
from tracer import Tracer

SIM_SEED = 2
SERVICES = ("nginx", "memcached", "mongodb")
#: One app per suite plus blast, the second most expensive ``_seqlib``
#: kernel: cold exploration of the panel is ~85 variant measurements.
PANEL = ("canneal", "water_nsquared", "kmeans", "snp", "blast")
MIXES = (
    ("canneal", "kmeans"),
    ("snp", "streamcluster"),
    ("fluidanimate", "bayesian", "water_nsquared"),
    ("plsa", "svmrfe", "genenet"),
)
PLIANT_POLICIES = ("pliant", "pliant-impact")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Warm ladder loads per pass; each app reports its median.
LADDER_LOADS = 40

#: Import probes per set-up; the set-up keeps their median.
IMPORTS = 3
#: Run in a fresh interpreter.  With argument 1 the import time is scaled
#: by reference loops run right after it (they need numpy, which the
#: imports bring in); the first loop only warms up.
IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "start = time.perf_counter()\n"
    "import repro.experiment, repro.sweep, repro.cluster, repro.core, "
    "repro.server, repro.services, repro.search, repro.apps\n"
    "seconds = time.perf_counter() - start\n"
    "if sys.argv[1] == '1':\n"
    "    from calibrate import REFERENCE_S, reference_loop\n"
    "    loops = []\n"
    "    for _ in range(6):\n"
    "        start = time.perf_counter()\n"
    "        reference_loop()\n"
    "        loops.append(time.perf_counter() - start)\n"
    "    seconds *= REFERENCE_S / statistics.median(loops[1:])\n"
    "print(seconds)\n"
)


def fig5_spec(apps=ALL_APP_NAMES) -> ExperimentSpec:
    """The Fig. 5 matrix, exactly as ``benchmarks/test_fig5_aggregate.py``."""
    return ExperimentSpec(
        name="fig5-aggregate",
        base={"seed": SIM_SEED},
        axes={"service": SERVICES, "apps": tuple(apps), "policy": ("precise", "pliant")},
    )


def diurnal_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="diurnal-multiapp",
        base={
            "seed": SIM_SEED,
            "loadgen_shape": "diurnal",
            "loadgen_params": {"low": 0.4, "high": 1.0, "period": 60.0},
        },
        axes={
            "apps": MIXES,
            "service": SERVICES,
            "policy": ("pliant", "pliant-impact", "core-reclaim-only"),
            "platform": ("default", "half-llc"),
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple
    mode: str  # "cold" | "replay" | "explore"
    #: Cold sweeps per pass.  explore-cold repeats its short sweep so its
    #: scenario times get as many samples per run as the other workloads.
    sweeps: int = 1
    #: Untraced passes per run at the least, whatever ``--seconds`` says.
    #: explore-cold's passes are long, and its exploration times need
    #: three samples per run to be steady.
    min_passes: int = 2


WORKLOADS = {
    "fig5-constant": Workload("fig5-constant", (fig5_spec,), "cold"),
    "diurnal-multiapp": Workload("diurnal-multiapp", (diurnal_spec,), "cold"),
    "warm-replay": Workload("warm-replay", (fig5_spec, diurnal_spec), "replay"),
    "explore-cold": Workload("explore-cold", (lambda: fig5_spec(PANEL),), "explore", sweeps=3, min_passes=3),
}


def label(scenario) -> str:
    """Human-readable scenario name, the key of the pinned digests."""
    parts = [scenario.service, "+".join(scenario.apps), scenario.policy]
    if scenario.platform != "default":
        parts.append(scenario.platform)
    if not scenario.has_default_loadgen():
        parts.append(scenario.loadgen_shape)
    return "/".join(parts)


def ladder_digest(exploration) -> str:
    return digest((exploration.all_variants, exploration.selected, exploration.ladder))


# -- tracing -----------------------------------------------------------------


def install_layers(tracer: Tracer) -> None:
    """Wrap the public layer functions the per-layer metrics are named after."""
    counts = tracer.counts

    def count_epochs(args, result, seconds):
        counts["core.epochs"] += len(result.epoch_times)

    def per_app_explore(args, result, seconds):
        counts[f"search.explore_s.{result.app_name}"] += seconds
        counts["search.variants"] += len(result.all_variants)
        counts["search.selected"] += result.selected_count

    def per_app_precise(args, result, seconds):
        counts[f"apps.precise_run.{args[0].name}"] += seconds

    tracer.wrap(SweepEngine, "run", "sweep.engine.run")
    tracer.wrap(SweepCache, "key", "sweep.cache.key")
    tracer.wrap(SweepCache, "get", "sweep.cache.get")
    tracer.wrap(SweepCache, "put", "sweep.cache.put")
    tracer.wrap(colocation, "build_engine", "cluster.build_engine")
    tracer.wrap(runtime.ColocationEngine, "run", "core.run", count_epochs)
    tracer.wrap_family(policy.RuntimePolicy, "on_interval", "core.policy.on_interval")
    tracer.wrap(monitor.PerformanceMonitor, "close_interval", "core.monitor.close_interval")
    tracer.wrap(monitor.PerformanceMonitor, "record", "core.monitor.record")
    tracer.wrap(actuator.Actuator, "set_level", "core.actuator.set_level")
    tracer.wrap(actuator.Actuator, "reclaim_core", "core.actuator.core_moves")
    tracer.wrap(actuator.Actuator, "return_core", "core.actuator.core_moves")
    tracer.wrap(node.ServerNode, "pressure_on", "server.pressure_on")
    tracer.wrap(resources.ResourceProfile, "scaled", "server.profile_scaled")
    tracer.wrap_family(service_base.InteractiveService, "profile", "services.profile")
    tracer.wrap_family(service_base.InteractiveService, "sample_p99", "services.sample_p99")
    tracer.wrap_family(loadgen.LoadGenerator, "qps_at", "services.loadgen.qps_at")
    tracer.wrap(DesignSpaceExplorer, "explore", "search.explore", per_app_explore)
    tracer.wrap(ApproximableApp, "precise_run", "apps.precise_run", per_app_precise)
    tracer.wrap(ApproximableApp, "measure", "apps.measure")


# -- measurement -------------------------------------------------------------


@dataclass
class PassRecord:
    """What one measured pass saw."""

    total_s: float = 0.0  # the whole pass, ladders included
    wall_s: float = 0.0  # the same in wall time, reference loops included
    overhead_s: float = 0.0  # sweep wall time beyond its scenarios' times
    compute_s: float = 0.0  # sum of SweepOutcome.duration
    scenario_s: dict[str, float] = field(default_factory=dict)  # by label
    epoch_us: dict[str, float] = field(default_factory=dict)  # by label
    #: By app: cold exploration on explore-cold, median warm load elsewhere.
    explore_s: dict[str, float] = field(default_factory=dict)
    ladder_load_s: float = 0.0  # warm ladder loads
    resultset_s: float = 0.0
    hits: int = 0
    lookups: int = 0
    result_kb: list[float] = field(default_factory=list)
    qos_met_frac: float = 0.0
    inaccuracy_pct_mean: float = 0.0


@dataclass
class SetupRecord:
    import_s: float = 0.0
    fingerprint_s: float = 0.0
    expand_s: float = 0.0
    ladder_load_s: float = 0.0
    fill_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.import_s + self.fingerprint_s + self.expand_s + self.ladder_load_s + self.fill_s


class Bench:
    """One workload in one process: set-ups, passes, and output checks."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        work_dir: Path,
        ladder_store: Path,
        reference: dict,
        src_dir: Path,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.ladder_store = ladder_store
        self.reference = reference
        self.src_dir = src_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[SetupRecord] = []
        self.passes: list[PassRecord] = []
        self._dirs = 0
        self._caches: list[SweepCache] = []
        #: Converts wall intervals to reference-speed seconds (calibrate.py).
        self.track = SpeedTrack()
        #: (label, start, end) of every scenario the simulator ran.
        self._ran: list[tuple[str, float, float]] = []

    # -- helpers ---------------------------------------------------------

    def _fresh_dir(self, kind: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{kind}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def _use_cache(self, root: Path) -> None:
        self.cache = SweepCache(root)
        self.engine = SweepEngine(cache=self.cache, backend=SerialBackend())
        self._caches.append(self.cache)

    def close(self) -> None:
        """Flush the caches' lookup counters now, so that no exit hook
        writes into the work directory after it is removed."""
        for cache in self._caches:
            cache.flush_stats()

    @contextmanager
    def _calibrated(self):
        """Hook the calls that bound timed work: every scenario run, timed
        here, and every variant measurement of an exploration.  Before
        each, a reference-loop mark is laid once due."""
        original_run, original_measure = sweep_engine.run_scenario, ApproximableApp.measure
        ran, track = self._ran, self.track

        def run_scenario(scenario):
            track.mark(due=True)
            start = perf_counter()
            result = original_run(scenario)
            ran.append((label(scenario), start, perf_counter()))
            return result

        def measure(*args, **kwargs):
            track.mark(due=True)
            return original_measure(*args, **kwargs)

        sweep_engine.run_scenario = run_scenario
        ApproximableApp.measure = measure
        try:
            yield
        finally:
            sweep_engine.run_scenario = original_run
            ApproximableApp.measure = original_measure

    def _problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def _import_seconds(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(self.src_dir), str(Path(__file__).parent)])
        probes = []
        for _ in range(IMPORTS):
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(int(self.track.enabled))],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            probes.append(float(done.stdout.strip().splitlines()[-1]))
        return statistics.median(probes)

    def check_results(self, outcomes) -> None:
        """Compare every result with its pinned digest."""
        pinned = self.reference["scenarios"]
        for outcome in outcomes:
            self.attempted += 1
            name = label(outcome.scenario)
            try:
                got = digest(outcome.result)
            except TypeError as exc:
                got = f"undigestable: {exc}"
            if pinned.get(name) != got:
                self.failed += 1
                self._problem(f"{name}: digest {got} != pinned {pinned.get(name)}")

    def _check_exploration(self, exploration) -> None:
        self.attempted += 1
        pinned = self.reference["ladders"].get(exploration.app_name)
        got = ladder_digest(exploration)
        if got != pinned:
            self.failed += 1
            self._problem(f"ladder {exploration.app_name}: digest {got} != pinned {pinned}")

    # -- set-up ----------------------------------------------------------

    def setup(self, tracer: Tracer | None = None) -> SetupRecord:
        """Prepare private caches and the scenario order; time the program's part.

        Timed: a fresh interpreter's import of the public packages, the
        code fingerprint, spec expansion, warm ladder loads and (for
        ``warm-replay``) the cold run that fills the result cache.
        """
        record = SetupRecord()
        exploration_dir = self._fresh_dir("exploration")
        if self.workload.mode != "explore":
            shutil.copytree(self.ladder_store, exploration_dir, dirs_exist_ok=True)
        os.environ["REPRO_EXPLORATION_CACHE"] = str(exploration_dir)
        sweeps_dir = self._fresh_dir("sweeps")
        os.environ["REPRO_SWEEP_CACHE"] = str(sweeps_dir)

        track = self.track
        steps: dict[str, tuple[float, float]] = {}
        record.import_s = self._import_seconds()
        with self._calibrated():
            if tracer is not None:
                install_layers(tracer)
            try:
                track.mark()
                start = perf_counter()
                sweep_cache.code_fingerprint.cache_clear()
                sweep_cache.code_fingerprint()
                steps["fingerprint_s"] = (start, perf_counter())

                track.mark()
                start = perf_counter()
                scenarios = [s for spec in self.workload.specs for s in spec().scenarios()]
                steps["expand_s"] = (start, perf_counter())
                self.order = random.Random(self.seed).sample(scenarios, len(scenarios))

                apps = sorted({app for s in scenarios for app in s.apps})
                self.apps = random.Random(self.seed).sample(apps, len(apps))
                if self.workload.mode != "explore":
                    colocation.ladder_for.cache_clear()
                    track.mark()
                    start = perf_counter()
                    for app in self.apps:
                        colocation.ladder_for(app, seed=0)
                    steps["ladder_load_s"] = (start, perf_counter())

                self._use_cache(sweeps_dir)
                if self.workload.mode == "replay":
                    track.mark()
                    start = perf_counter()
                    filled = self.engine.run(self.order)
                    steps["fill_s"] = (start, perf_counter())
                track.mark()
            finally:
                if tracer is not None:
                    tracer.close()
        for name, (start, end) in steps.items():
            setattr(record, name, track.seconds(start, end))
        if self.workload.mode == "replay":
            self.check_results(filled)
        self.setups.append(record)
        return record

    def explore_panel(self, tracer: Tracer) -> None:
        """Explore the panel cold into a scratch cache, under ``tracer``."""
        cache_dir = self._fresh_dir("exploration")
        install_layers(tracer)
        try:
            explorations = [
                DesignSpaceExplorer(make_app(app), seed=0, cache_dir=cache_dir).explore()
                for app in PANEL
            ]
        finally:
            tracer.close()
        for exploration in explorations:
            self._check_exploration(exploration)

    # -- measured passes ---------------------------------------------------

    def run_pass(self, tracer: Tracer | None = None) -> PassRecord:
        """One pass: obtain the ladders, then run or replay every scenario."""
        record = PassRecord()
        mode = self.workload.mode
        track = self.track
        if mode == "explore":
            os.environ["REPRO_EXPLORATION_CACHE"] = str(self._fresh_dir("exploration"))
        if mode != "replay":
            self._use_cache(self._fresh_dir("sweeps"))
        hits, misses = self.cache.hits, self.cache.misses

        with self._calibrated():
            if tracer is not None:
                install_layers(tracer)
            try:
                track.mark()
                pass_start = perf_counter()
                explorations = self._obtain_ladders(record)
                outcomes = self._replay(record) if mode == "replay" else self._sweep(record)
                pass_end = perf_counter()
                record.wall_s = pass_end - pass_start
                record.compute_s = sum(o.duration for o in outcomes)

                track.mark()
                start = perf_counter()
                pliant = ResultSet(outcomes).filter(lambda o: o.scenario.policy in PLIANT_POLICIES)
                qos_met = pliant.values("qos_met")
                inaccuracy = pliant.values("mean_inaccuracy_pct")
                end = perf_counter()
                track.mark()
            finally:
                if tracer is not None:
                    tracer.close()
        record.total_s = track.seconds(pass_start, pass_end)
        record.resultset_s = track.seconds(start, end)

        record.qos_met_frac = sum(qos_met) / len(qos_met)
        record.inaccuracy_pct_mean = statistics.fmean(inaccuracy)
        record.hits = self.cache.hits - hits
        record.lookups = record.hits + self.cache.misses - misses
        record.epoch_us = {
            label(o.scenario): 1e6 * record.scenario_s[label(o.scenario)] / len(o.result.epoch_times)
            for o in outcomes
        }
        record.result_kb = [
            self.cache.path(self.cache.key(s)).stat().st_size / 1024 for s in self.order
        ]
        for exploration in explorations:
            self._check_exploration(exploration)
        self.check_results(outcomes)
        expect_hits = record.lookups if mode == "replay" else 0
        if record.hits != expect_hits or record.lookups != len(self.order):
            self._problem(
                f"cache: {record.hits} hits in {record.lookups} lookups "
                f"for {len(self.order)} scenarios"
            )
            self.failed += 1
            self.attempted += 1
        if tracer is None:
            self.passes.append(record)
        return record

    def _obtain_ladders(self, record: PassRecord) -> list:
        """Explore the ladders cold (explore-cold), or load them warm.

        A warm load takes well under a millisecond per app, so the loads
        are repeated and each app keeps its median load time.
        """
        track = self.track
        if self.workload.mode == "explore":
            explorations, explored, loaded = [], {}, []
            colocation.ladder_for.cache_clear()
            for app in self.apps:
                track.mark()
                start = perf_counter()
                explorations.append(DesignSpaceExplorer(make_app(app), seed=0).explore())
                explored[app] = (start, perf_counter())
                start = perf_counter()
                colocation.ladder_for(app, seed=0)
                loaded.append((start, perf_counter()))
            track.mark()
            record.explore_s = {app: track.seconds(*span) for app, span in explored.items()}
            record.ladder_load_s = sum(track.seconds(*span) for span in loaded)
            return explorations
        spans: dict[str, list[tuple[float, float]]] = {app: [] for app in self.apps}
        for _ in range(LADDER_LOADS):
            colocation.ladder_for.cache_clear()
            for app in self.apps:
                track.mark(due=True)
                start = perf_counter()
                colocation.ladder_for(app, seed=0)
                spans[app].append((start, perf_counter()))
        track.mark()
        record.explore_s = {
            app: statistics.median(track.seconds(*span) for span in app_spans)
            for app, app_spans in spans.items()
        }
        record.ladder_load_s = sum(record.explore_s.values())
        return []

    def _replay(self, record: PassRecord) -> list:
        """Serve every scenario on its own from the filled cache."""
        track = self.track
        outcomes, spans = [], {}
        track.mark()
        sweep_start = perf_counter()
        for scenario in self.order:
            track.mark(due=True)
            start = perf_counter()
            outcomes.extend(self.engine.run([scenario]))
            spans[label(scenario)] = (start, perf_counter())
        sweep_end = perf_counter()
        track.mark()
        record.scenario_s = {name: track.seconds(*span) for name, span in spans.items()}
        record.overhead_s = track.seconds(sweep_start, sweep_end) - sum(record.scenario_s.values())
        return outcomes

    def _sweep(self, record: PassRecord) -> list:
        """Cold sweeps of every scenario; each keeps its median time."""
        track = self.track
        outcomes, sweeps = [], []
        for repeat in range(self.workload.sweeps):
            # Repeats bypass cache reads: every sweep computes cold.
            self._ran.clear()
            track.mark()
            start = perf_counter()
            outcomes.extend(run_experiment(self.order, engine=self.engine, force=repeat > 0).outcomes)
            sweeps.append(((start, perf_counter()), list(self._ran)))
        track.mark()
        overheads, durations = [], {}
        for span, ran in sweeps:
            times = [track.seconds(start, end) for _, start, end in ran]
            overheads.append(track.seconds(*span) - sum(times))
            for (name, _, _), seconds in zip(ran, times):
                durations.setdefault(name, []).append(seconds)
        record.overhead_s = statistics.median(overheads)
        record.scenario_s = {name: statistics.median(d) for name, d in durations.items()}
        return outcomes
