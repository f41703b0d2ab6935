"""Multi-application arbitration (Section 4.4).

With several approximate applications on the node, Pliant escalates in a
round-robin fashion so no application is penalized disproportionately:
first each application (rotation order, random start) is switched to its
most approximate variant; only when all are maxed does core reclamation
begin, one application and one core at a time.  De-escalation mirrors it:
cores return first, then approximation steps down — always one unit per
decision interval.

:class:`ImpactAwareArbiter` is the Section 6.5 extension: instead of strict
rotation it escalates the application that pays the least for it (largest
contention relief per unit of quality lost).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.rng import child_generator


@dataclass(frozen=True)
class AppView:
    """What the arbiter knows about one approximate application."""

    name: str
    level: int
    max_level: int
    cores: int
    nominal_cores: int
    # Per-level measured factors, for impact-aware policies.
    level_inaccuracies: tuple[float, ...] = ()
    level_traffic_rates: tuple[float, ...] = ()

    @property
    def at_max_level(self) -> bool:
        return self.level >= self.max_level

    @property
    def reclaimed(self) -> int:
        return max(0, self.nominal_cores - self.cores)


@dataclass(frozen=True)
class ArbiterDecision:
    """One action against one application (or nothing)."""

    action: str  # "none" | "set_level" | "reclaim_core" | "return_core"
    app_name: str = ""
    level: int = 0

    @classmethod
    def none(cls) -> "ArbiterDecision":
        return cls(action="none")


class Arbiter(ABC):
    """Chooses which application to escalate or relax."""

    @abstractmethod
    def escalate(self, apps: Sequence[AppView]) -> ArbiterDecision:
        """Pick the next escalation step after a QoS violation."""

    @abstractmethod
    def deescalate(self, apps: Sequence[AppView]) -> ArbiterDecision:
        """Pick the next relaxation step when slack is plentiful."""


@lru_cache(maxsize=1024)
def _start_pointer(seed: int) -> int:
    """The rotation's random start for ``seed``: one draw of its own
    stream, taken once per process for each seed."""
    return int(child_generator(seed, "arbiter").integers(0, 1 << 16))


class RoundRobinArbiter(Arbiter):
    """The paper's simple, scalable round-robin policy."""

    def __init__(self, seed: int = 0) -> None:
        self._pointer = _start_pointer(seed)

    def _rotate(self, names: list[str]) -> str:
        name = names[self._pointer % len(names)]
        self._pointer += 1
        return name

    def escalate(self, apps: Sequence[AppView]) -> ArbiterDecision:
        below_max = [a for a in apps if not a.at_max_level]
        if below_max:
            chosen = self._rotate(sorted(a.name for a in below_max))
            target = next(a for a in below_max if a.name == chosen)
            return ArbiterDecision(
                action="set_level", app_name=target.name, level=target.max_level
            )
        reclaimable = [a for a in apps if a.cores > 1]
        if reclaimable:
            chosen = self._rotate(sorted(a.name for a in reclaimable))
            return ArbiterDecision(action="reclaim_core", app_name=chosen)
        return ArbiterDecision.none()

    def deescalate(self, apps: Sequence[AppView]) -> ArbiterDecision:
        # Cores come back first (most-reclaimed application first, so the
        # round-robin fairness holds in reverse).
        reclaimed = [a for a in apps if a.reclaimed > 0]
        if reclaimed:
            target = max(reclaimed, key=lambda a: (a.reclaimed, a.name))
            return ArbiterDecision(action="return_core", app_name=target.name)
        approximated = [a for a in apps if a.level > 0]
        if approximated:
            target = max(approximated, key=lambda a: (a.level, a.name))
            return ArbiterDecision(
                action="set_level", app_name=target.name, level=target.level - 1
            )
        return ArbiterDecision.none()


class ImpactAwareArbiter(Arbiter):
    """Section 6.5 extension: escalate where it hurts least, help most.

    Scores each candidate by the contention relief its most-approximate
    variant offers per percent of output quality it sacrifices, and
    escalates the best scorer instead of rotating blindly.
    """

    def escalate(self, apps: Sequence[AppView]) -> ArbiterDecision:
        below_max = [a for a in apps if not a.at_max_level]
        if below_max:
            target = max(below_max, key=self._relief_per_quality)
            return ArbiterDecision(
                action="set_level", app_name=target.name, level=target.max_level
            )
        reclaimable = [a for a in apps if a.cores > 1]
        if reclaimable:
            # Take the core from the app with the most cores left.
            target = max(reclaimable, key=lambda a: (a.cores, a.name))
            return ArbiterDecision(action="reclaim_core", app_name=target.name)
        return ArbiterDecision.none()

    def deescalate(self, apps: Sequence[AppView]) -> ArbiterDecision:
        reclaimed = [a for a in apps if a.reclaimed > 0]
        if reclaimed:
            target = max(reclaimed, key=lambda a: (a.reclaimed, a.name))
            return ArbiterDecision(action="return_core", app_name=target.name)
        approximated = [a for a in apps if a.level > 0]
        if approximated:
            # Relax the app sacrificing the most quality right now.
            target = max(approximated, key=self._current_quality_cost)
            return ArbiterDecision(
                action="set_level", app_name=target.name, level=target.level - 1
            )
        return ArbiterDecision.none()

    @staticmethod
    def _relief_per_quality(app: AppView) -> float:
        if not app.level_traffic_rates or not app.level_inaccuracies:
            return 0.0
        top = len(app.level_traffic_rates) - 1
        relief = 1.0 - app.level_traffic_rates[top]
        quality_cost = max(app.level_inaccuracies[top], 0.1)
        return relief / quality_cost

    @staticmethod
    def _current_quality_cost(app: AppView) -> float:
        if not app.level_inaccuracies:
            return 0.0
        return app.level_inaccuracies[min(app.level, len(app.level_inaccuracies) - 1)]
