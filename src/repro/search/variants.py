"""Per-app variant exploration: enumerate, measure, prune, cache.

The original budgeted search in this codebase (paper Section 3): walk an
app's approximation-knob grid, measure quality/time/contention for every
variant, and prune to the near-frontier ladder the runtime climbs.
Exploration "only needs to happen once, unless the application design
changes" (Section 4.1), so results are cached on disk keyed by the app
name, seed, knob grid, quality threshold and a fingerprint of the code
that measures them — the same content-addressed-resume idea the
scenario-space strategies get from :class:`~repro.sweep.cache.SweepCache`.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.apps.base import ApproximableApp, MeasuredVariant, VariantSpec
from repro.apps.knobs import Knob
from repro.cas import atomic_write_bytes, numeric_environment, source_digest, stable_hash
from repro.search.ladder import ApproxLadder, pareto_select
from repro.search.profiler import WorkProfiler
from repro.telemetry import get_recorder

_CACHE_ENV = "REPRO_EXPLORATION_CACHE"

#: Upper bound on enumerated variants per app; grids beyond this are
#: subsampled deterministically (every k-th combination).
MAX_VARIANTS = 96

#: The code a measured variant is a function of, below the ``repro``
#: package: the kernels and their counters (``units`` sizes footprints),
#: this exploration code, and the per-app seeding.
LADDER_SOURCES = ("apps", "search", "rng.py", "units.py")


@lru_cache(maxsize=1)
def ladder_code_fingerprint() -> str:
    """Digest of :data:`LADDER_SOURCES`, computed once per process.

    Folded into every ladder cache key, so an edited kernel never serves
    a ladder measured by the code before the edit.
    """
    return source_digest(Path(__file__).resolve().parent.parent, LADDER_SOURCES)


def default_cache_dir() -> Path:
    env = os.environ.get(_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pliant" / "exploration"


def enumerate_variants(
    app: ApproximableApp,
    knobs: dict[str, Knob] | None = None,
    max_variants: int = MAX_VARIANTS,
) -> list[VariantSpec]:
    """All non-precise knob combinations for ``app``, precise-values allowed
    per knob so single-knob and mixed variants both appear."""
    knobs = knobs if knobs is not None else app.knobs()
    if not knobs:
        return []
    names = sorted(knobs)
    value_lists = [knobs[name].all_values() for name in names]
    specs: list[VariantSpec] = []
    for combo in itertools.product(*value_lists):
        settings = {
            name: value
            for name, value in zip(names, combo)
            if value != knobs[name].precise_value
        }
        if not settings:
            continue  # the all-precise point is handled separately
        specs.append(VariantSpec(settings))
    if len(specs) > max_variants:
        stride = len(specs) / max_variants
        specs = [specs[int(i * stride)] for i in range(max_variants)]
    return specs


@dataclass
class ExplorationResult:
    """Everything Section 3 produces for one app."""

    app_name: str
    all_variants: list[MeasuredVariant]
    selected: list[MeasuredVariant]
    ladder: ApproxLadder

    @property
    def selected_count(self) -> int:
        return len(self.selected)


class DesignSpaceExplorer:
    """Explores one app's approximation design space.

    ``use_profiler_hints`` restricts the grid to the profiler's hottest
    sites (the paper's gprof path for apps without ACCEPT support);
    otherwise the app's full declared knob set is used (the ACCEPT path).
    """

    def __init__(
        self,
        app: ApproximableApp,
        seed: int = 0,
        max_inaccuracy_pct: float = 5.0,
        use_profiler_hints: bool = False,
        cache_dir: str | os.PathLike[str] | None = None,
    ) -> None:
        self._app = app
        self._seed = seed
        self._max_inaccuracy = max_inaccuracy_pct
        self._use_profiler = use_profiler_hints
        self._cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()

    # -- cache keys -----------------------------------------------------------

    def _grid_fingerprint(self) -> str:
        knobs = self._app.knobs()
        return stable_hash(
            {
                name: [repr(v) for v in knob.all_values()]
                for name, knob in sorted(knobs.items())
            },
            length=16,
        )

    def _cache_path(self) -> Path:
        key = (
            f"{self._app.name}-s{self._seed}-q{self._max_inaccuracy}"
            f"-p{int(self._use_profiler)}-{self._grid_fingerprint()}"
            f"-{numeric_environment()}-c{ladder_code_fingerprint()}"
        )
        return self._cache_dir / f"{key}.json"

    # -- exploration ------------------------------------------------------------

    def explore(self, force: bool = False) -> ExplorationResult:
        """Measure every variant (cached) and select the ladder.

        Corrupted cache entries (truncated writes, foreign payloads) are
        deleted and remeasured instead of crashing the run.
        """
        telemetry = get_recorder()
        with telemetry.span("search.explore", cat="search", app=self._app.name):
            path = self._cache_path()
            variants = None
            if not force and path.exists():
                variants = _load_variants(path, self._app.name)
            if variants is None:
                telemetry.count("search.ladder_cache.miss")
                variants = self._measure_all()
                _store_variants(path, variants)
            else:
                telemetry.count("search.ladder_cache.hit")
            selected = pareto_select(variants, self._max_inaccuracy)
            ladder = ApproxLadder.from_selection(self._app.precise_variant(), selected)
        return ExplorationResult(
            app_name=self._app.name,
            all_variants=variants,
            selected=selected,
            ladder=ladder,
        )

    def _measure_all(self) -> list[MeasuredVariant]:
        if self._use_profiler:
            knobs = WorkProfiler(self._app, seed=self._seed).hot_sites()
        else:
            knobs = self._app.knobs()
        specs = enumerate_variants(self._app, knobs=knobs)
        return [self._app.measure(spec, seed=self._seed) for spec in specs]


# -- (de)serialization -----------------------------------------------------


def _store_variants(path: Path, variants: list[MeasuredVariant]) -> None:
    payload = [
        {
            "settings": dict(v.spec),
            "inaccuracy_pct": v.inaccuracy_pct,
            "time_factor": v.time_factor,
            "traffic_rate_factor": v.traffic_rate_factor,
            "footprint_factor": v.footprint_factor,
        }
        for v in variants
    ]
    atomic_write_bytes(path, json.dumps(payload, indent=1).encode("utf-8"))


def _load_variants(path: Path, app_name: str) -> list[MeasuredVariant] | None:
    """Parse a cache entry; on any corruption, delete it and return None."""
    try:
        payload = json.loads(path.read_text())
        return [
            MeasuredVariant(
                app_name=app_name,
                spec=VariantSpec(entry["settings"]),
                inaccuracy_pct=entry["inaccuracy_pct"],
                time_factor=entry["time_factor"],
                traffic_rate_factor=entry["traffic_rate_factor"],
                footprint_factor=entry["footprint_factor"],
            )
            for entry in payload
        ]
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
