"""Fat binary: all variant implementations aggregated together.

Pliant compiles every selected approximate version of each perforated
function into one binary alongside the precise version, so switching is a
pointer swap rather than a recompilation.  The analog here maps each ladder
level to the fully materialized knob settings of its variant — the
"function addresses" DynamoRIO reads at startup.  A simulated run never
reads them, so each level's settings are materialized the first time
:meth:`FatBinary.settings_for` asks for them.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.apps.base import ApproximableApp
from repro.search.ladder import ApproxLadder


class FatBinary:
    """The aggregated precise+approximate build of one application.

    It holds the ladder's levels as they were at construction, so a later
    change to the (mutable) ladder does not change the binary.
    """

    def __init__(self, app: ApproximableApp, ladder: ApproxLadder) -> None:
        if ladder.app_name != app.name:
            raise ValueError(
                f"ladder for {ladder.app_name!r} does not match app {app.name!r}"
            )
        self._app = app
        self._ladder = ladder
        self._variants = tuple(ladder.levels)
        self._settings: dict[int, Mapping[str, Any]] = {}

    @property
    def app(self) -> ApproximableApp:
        return self._app

    @property
    def ladder(self) -> ApproxLadder:
        return self._ladder

    @property
    def level_count(self) -> int:
        return len(self._variants)

    def settings_for(self, level: int) -> Mapping[str, Any]:
        """The knob settings (function-pointer table) of ``level``."""
        settings = self._settings.get(level)
        if settings is None:
            spec = self._variants[level].spec
            settings = self._settings[level] = self._app.materialize(spec)
        return dict(settings)

    def describe(self) -> str:
        lines = [f"fat binary for {self._app.name}:"]
        for level, variant in enumerate(self._variants):
            tag = "precise" if level == 0 else f"approx v{level}"
            lines.append(
                f"  level {level} ({tag}): "
                f"inaccuracy={variant.inaccuracy_pct:.2f}% "
                f"time={variant.time_factor:.2f}x"
            )
        return "\n".join(lines)
