"""Open-loop workload generators.

The paper drives every service with open-loop clients at a configurable
fraction of saturation (default 75-80 %).  A generator maps simulation time
to offered QPS; the runtime samples it once per monitor epoch.  Loads are
expressed as a fraction of the service's saturation at its *nominal* core
count, so reclaiming cores does not silently change the offered load.

Generators expose both a scalar ``qps_at`` (the runtime's per-epoch probe)
and a vectorized ``qps_at_array`` (whole trace in one numpy expression),
which is what ``mean_qps`` and sweep-scale tooling sample through.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


class LoadGenerator(ABC):
    """Offered load as a function of time."""

    @abstractmethod
    def qps_at(self, time: float) -> float:
        """Offered queries/second at simulation time ``time``."""

    def qps_at_array(self, times) -> np.ndarray:
        """Vectorized :meth:`qps_at` over an array of times.

        Subclasses override with a closed-form numpy expression; this
        fallback just loops, so custom generators stay correct without
        extra work.
        """
        times = np.asarray(times, dtype=float)
        flat = [self.qps_at(float(t)) for t in np.ravel(times)]
        return np.asarray(flat, dtype=float).reshape(times.shape)

    def mean_qps(self, horizon: float, resolution: float = 0.1) -> float:
        """Average offered load over ``[0, horizon]`` (numeric, for tests)."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        steps = max(1, int(horizon / resolution))
        times = np.arange(steps, dtype=float) * horizon / steps
        return float(self.qps_at_array(times).mean())


@dataclass(frozen=True)
class ConstantLoad(LoadGenerator):
    """Fixed offered load."""

    qps: float

    def __post_init__(self) -> None:
        if self.qps < 0:
            raise ValueError("qps must be non-negative")

    def qps_at(self, time: float) -> float:
        return self.qps

    def qps_at_array(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return np.full(times.shape, float(self.qps))


@dataclass(frozen=True)
class StepLoad(LoadGenerator):
    """Piecewise-constant load: ``steps`` is a list of (start_time, qps)."""

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("steps must be non-empty")
        times = [t for t, _ in self.steps]
        if times != sorted(times):
            raise ValueError("step times must be non-decreasing")
        if any(q < 0 for _, q in self.steps):
            raise ValueError("qps values must be non-negative")
        # Lookup tables for O(log n) probes; level 0 before the first step.
        object.__setattr__(self, "_starts", tuple(times))
        object.__setattr__(
            self, "_levels", (0.0,) + tuple(q for _, q in self.steps)
        )

    def qps_at(self, time: float) -> float:
        return self._levels[bisect_right(self._starts, time)]

    def qps_at_array(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        levels = np.asarray(self._levels, dtype=float)
        return levels[np.searchsorted(self._starts, times, side="right")]


@dataclass(frozen=True)
class DiurnalLoad(LoadGenerator):
    """Sinusoidal load between ``low_qps`` and ``high_qps`` over ``period``."""

    low_qps: float
    high_qps: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.low_qps < 0 or self.high_qps < self.low_qps:
            raise ValueError("need 0 <= low_qps <= high_qps")
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "_midpoint", (self.high_qps + self.low_qps) / 2.0)
        object.__setattr__(self, "_amplitude", (self.high_qps - self.low_qps) / 2.0)

    def qps_at(self, time: float) -> float:
        return self._midpoint + self._amplitude * math.sin(
            2.0 * math.pi * (time / self.period) + self.phase
        )

    def qps_at_array(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return self._midpoint + self._amplitude * np.sin(
            2.0 * np.pi * (times / self.period) + self.phase
        )


#: Declarative load shapes a :class:`~repro.sweep.grid.Scenario` can name.
#: QPS-valued parameters are *fractions of saturation* at the service's
#: nominal core count, so shapes compose with ``load_fraction`` semantics
#: and stay meaningful across services and platforms.
LOADGEN_SHAPES = ("constant", "step", "diurnal", "bursty")

#: The highest load a scenario may offer, as a fraction of saturation:
#: far past any overload worth simulating, and far below loads whose
#: contention terms overflow a float when the engine is built.
MAX_LOAD_FRACTION = 1e3


def loadgen_from_spec(
    shape: str,
    params,
    saturation_qps: float,
) -> LoadGenerator | None:
    """Build a generator from a declarative ``(shape, params)`` spec.

    ``params`` is a mapping (or sequence of pairs) whose QPS-valued
    entries are fractions of ``saturation_qps``, each at most
    :data:`MAX_LOAD_FRACTION`; every parameter must be a finite ``int`` or
    ``float`` (not a bool, not a numeric string).  Returns ``None`` for a
    parameterless ``"constant"`` shape — the caller's default (offered
    load from ``load_fraction``) already covers it.

    Shapes::

        constant  fraction                              (optional)
        step      steps=[[t0, f0], [t1, f1], ...]       piecewise-constant
        diurnal   low, high, period[, phase]            sinusoid
        bursty    base, burst, period, duration         square bursts
    """
    params = dict(params or ())
    if shape not in LOADGEN_SHAPES:
        raise ValueError(
            f"unknown loadgen shape {shape!r} "
            f"(expected one of {', '.join(LOADGEN_SHAPES)})"
        )

    def finite(name: str, raw) -> float:
        # Numbers only, as a scenario payload takes them: a numeric string
        # or a bool would run the experiment of the number it coerces to
        # under a scenario that keys apart from it.
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"loadgen parameter {name!r} must be a number, got {raw!r}")
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"loadgen parameter {name!r} must be finite, got {raw!r}")
        return value

    def load(name: str, raw) -> float:
        value = finite(name, raw)
        if value > MAX_LOAD_FRACTION:
            raise ValueError(
                f"loadgen parameter {name!r} must be at most "
                f"{MAX_LOAD_FRACTION:g} (a fraction of saturation), got {raw!r}"
            )
        return value

    def need(name: str, check=finite) -> float:
        try:
            return check(name, params.pop(name))
        except KeyError:
            raise ValueError(
                f"loadgen shape {shape!r} needs a {name!r} parameter"
            ) from None

    def reject_leftovers() -> None:
        if params:
            raise ValueError(
                f"unknown parameters for loadgen shape {shape!r}: "
                f"{sorted(params)}"
            )

    if shape == "constant":
        if not params:
            return None
        value = need("fraction", load)
        reject_leftovers()
        return ConstantLoad(qps=value * saturation_qps)
    if shape == "step":
        try:
            steps = params.pop("steps")
        except KeyError:
            raise ValueError("loadgen shape 'step' needs a 'steps' parameter") from None
        reject_leftovers()
        return StepLoad(
            steps=tuple(
                (finite("steps", t), load("steps", f) * saturation_qps)
                for t, f in steps
            )
        )
    if shape == "diurnal":
        low, high = need("low", load), need("high", load)
        period = need("period")
        phase = finite("phase", params.pop("phase", 0.0))
        reject_leftovers()
        return DiurnalLoad(
            low_qps=low * saturation_qps,
            high_qps=high * saturation_qps,
            period=period,
            phase=phase,
        )
    base, burst = need("base", load), need("burst", load)
    period, duration = need("period"), need("duration")
    reject_leftovers()
    return BurstyLoad(
        base_qps=base * saturation_qps,
        burst_qps=burst * saturation_qps,
        burst_period=period,
        burst_duration=duration,
    )


@dataclass(frozen=True)
class BurstyLoad(LoadGenerator):
    """Base load with periodic square bursts (models flash crowds)."""

    base_qps: float
    burst_qps: float
    burst_period: float
    burst_duration: float

    def __post_init__(self) -> None:
        if self.base_qps < 0 or self.burst_qps < self.base_qps:
            raise ValueError("need 0 <= base_qps <= burst_qps")
        if not 0 < self.burst_duration <= self.burst_period:
            raise ValueError("need 0 < burst_duration <= burst_period")

    def qps_at(self, time: float) -> float:
        position = time % self.burst_period
        return self.burst_qps if position < self.burst_duration else self.base_qps

    def qps_at_array(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        in_burst = (times % self.burst_period) < self.burst_duration
        return np.where(in_burst, float(self.burst_qps), float(self.base_qps))
