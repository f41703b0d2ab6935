"""Actuator: enforces controller decisions on the node (Section 4.1-4.2).

Two levers, exactly the paper's: switch an application's approximate
variant, and move cores between an approximate application and the
interactive service.

The paper switches a variant by sending the app a signal that DynamoRIO
traps to retarget its function table.  The simulation keeps what a
result can see of that: an instrumented app runs slower by its measured
DynamoRIO overhead (the engine's ``AppSim.instrumentation_factor``),
pauses :data:`SWITCH_PAUSE` per switch, and counts one switch per entry
of its level trace.
"""

from __future__ import annotations

#: Pause per variant switch (seconds).  Coarse-grained function
#: replacement makes this tiny; it exists so pathological ping-ponging
#: has a price.
SWITCH_PAUSE = 0.02


class Actuator:
    """Binds policy decisions to the simulated node.

    The engine provides callbacks for the actual state mutation; the
    actuator adds the checks on a switch and its pause.  Policies only
    ever talk to this object.
    """

    def __init__(self, engine) -> None:
        self._engine = engine

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
        """Switch the instrumented app's approximation degree."""
        sim = self._engine.app_sim(app_name)
        if level == sim.level:
            return
        if not 0 <= level <= sim.ladder.max_level:
            raise IndexError(
                f"{app_name}: level {level} outside [0, {sim.ladder.max_level}]"
            )
        if not sim.instrumented:
            raise ValueError(
                f"{app_name}: only an instrumented app switches levels; "
                "the policy must set requires_instrumentation = True"
            )
        self._engine.apply_level(app_name, level)
        sim.pause_remaining += SWITCH_PAUSE

    def reclaim_core(self, app_name: str) -> None:
        """Move one core from the app to the interactive service."""
        self._engine.move_core(app_name, to_service=True)

    def return_core(self, app_name: str) -> None:
        """Give one core back from the interactive service to the app."""
        self._engine.move_core(app_name, to_service=False)
