"""Bad fixture: telemetry readings leaking into result computation.

Expected findings: telemetry-side-channel x5 — a recorder.snapshot()
read, a module-level summary() merge, a returned clock reading, a
clock-derived value stored into object state, and one passed to a
non-recorder call — and free-zone-import x1 for the module import.
"""

from repro import telemetry
from repro.telemetry import get_recorder


def duration_from_snapshot() -> float:
    recorder = get_recorder()
    stats = recorder.snapshot()
    return stats["span_totals"]["scenario.run"]["total_s"]


def fleet_hit_rate() -> float:
    merged = telemetry.summary()
    return merged["counters"].get("sweep.cache.hit", 0.0)


def leaked_timestamp() -> float:
    recorder = get_recorder()
    started = recorder.now()
    return started


class EpochResult:
    def __init__(self) -> None:
        self.wall_seconds = 0.0

    def finish(self) -> None:
        recorder = get_recorder()
        begun = recorder.now()
        self.wall_seconds = recorder.now() - begun


def stamp_payload(payload: dict) -> dict:
    recorder = get_recorder()
    tick = recorder.now()
    payload.update(observed_at=tick)
    return payload
