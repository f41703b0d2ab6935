"""Actuator: enforces controller decisions on the node (Section 4.1-4.2).

Two levers, exactly the paper's: switch an application's approximate
variant (a Linux signal trapped by the DynamoRIO analog, which retargets
the function table and re-scales the tenant's contention profile), and move
cores between an approximate application and the interactive service.
"""

from __future__ import annotations

from repro.dynrio.overhead import OverheadModel


class Actuator:
    """Binds policy decisions to the simulated node.

    The engine provides callbacks for the actual state mutation; the
    actuator adds signal delivery and switch-pause accounting.  Policies
    only ever talk to this object.
    """

    def __init__(self, engine, overhead: OverheadModel | None = None) -> None:
        self._engine = engine
        self._overhead = overhead or OverheadModel()

    # -- observation ------------------------------------------------------

    def running_apps(self) -> list[str]:
        return self._engine.running_app_names()

    def level_of(self, app_name: str) -> int:
        return self._engine.app_sim(app_name).level

    def max_level(self, app_name: str) -> int:
        return self._engine.app_sim(app_name).ladder.max_level

    def cores_of(self, app_name: str) -> int:
        return self._engine.app_sim(app_name).tenant.cores

    def nominal_cores(self, app_name: str) -> int:
        return self._engine.app_sim(app_name).tenant.nominal_cores

    def app_view(self, app_name: str):
        return self._engine.arbiter_view(app_name)

    def running_views(self):
        """:meth:`app_view` of every running app, in name order."""
        return self._engine.running_views()

    @property
    def service_cores(self) -> int:
        return self._engine.service_cores

    # -- actuation ---------------------------------------------------------

    def set_level(self, app_name: str, level: int) -> None:
        """Signal the instrumented app to switch approximation degree."""
        sim = self._engine.app_sim(app_name)
        if level == sim.level:
            return
        if not 0 <= level <= sim.ladder.max_level:
            raise IndexError(
                f"{app_name}: level {level} outside [0, {sim.ladder.max_level}]"
            )
        self._engine.apply_level(app_name, level)
        sim.pause_remaining += self._overhead.switch_pause()

    def reclaim_core(self, app_name: str) -> None:
        """Move one core from the app to the interactive service."""
        self._engine.move_core(app_name, to_service=True)

    def return_core(self, app_name: str) -> None:
        """Give one core back from the interactive service to the app."""
        self._engine.move_core(app_name, to_service=False)
