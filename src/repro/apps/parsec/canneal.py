"""canneal: simulated-annealing placement of a netlist on a grid.

The real PARSEC canneal minimizes wire length by swapping netlist element
locations under a cooling schedule.  This kernel does the same at small
scale: elements occupy grid slots, each element is wired to a few random
peers, and annealing proposes element swaps.

Approximation knobs
-------------------
``perforate_moves``
    Skip a fraction of annealing moves (the paper's headline canneal
    observation: rejected/no-op moves contribute little quality).  Skipping
    moves shortens execution markedly, but the cost-tracking refresh pass —
    which dominates *memory traffic* — still runs on schedule, so the
    measured contention rate barely drops.  This reproduces Section 6.1:
    canneal's approximation "does not significantly decrease contention".
``elide_swap_locks``
    Apply swaps without taking the position locks.  Deltas are then
    occasionally computed against stale positions (small, nondeterministic
    quality noise) and the lock traffic disappears.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro import units
from repro.apps.base import AppMetadata, ApproximableApp, KernelCounters
from repro.apps.knobs import Knob, LoopPerforation, SyncElision, perforated_indices
from repro.apps.quality import cost_increase_pct
from repro.server.resources import ResourceProfile

_N_ELEMENTS = 500
_GRID = 32
_NET_DEGREE = 4
_MOVES = 2600
_REFRESH_EVERY = 100
_STALE_SWAP_RATE = 0.04

# Counter scales: moves are compute-heavy, the refresh pass traffic-heavy.
_MOVE_WORK = 2.5
_MOVE_TRAFFIC = 128.0
_LOCK_WORK = 0.3
_LOCK_TRAFFIC = 96.0
_REFRESH_WORK_PER_ELEM = 0.5
_REFRESH_TRAFFIC_PER_ELEM = 64.0


class Canneal(ApproximableApp):
    """Simulated-annealing netlist placement (PARSEC)."""

    metadata = AppMetadata(
        name="canneal",
        suite="parsec",
        nominal_exec_time=40.0,
        parallel_fraction=0.80,
        dynrio_overhead=0.048,
        profile=ResourceProfile(
            llc_footprint_bytes=units.mb(58),
            llc_intensity=0.85,
            membw_per_core=units.gbytes_per_sec(6.0),
        ),
    )

    def knobs(self) -> dict[str, Knob]:
        return {
            "perforate_moves": LoopPerforation(
                "perforate_moves", (0.85, 0.70, 0.55, 0.40, 0.28)
            ),
            "elide_swap_locks": SyncElision("elide_swap_locks"),
        }

    def run_kernel(
        self,
        settings: Mapping[str, Any],
        counters: KernelCounters,
        rng: np.random.Generator,
    ) -> float:
        keep_moves = settings["perforate_moves"]
        elide_locks = settings["elide_swap_locks"]

        slots = rng.permutation(_GRID * _GRID)[:_N_ELEMENTS]
        nets = rng.integers(0, _N_ELEMENTS, size=(_N_ELEMENTS, _NET_DEGREE))
        x = (slots % _GRID).astype(np.float64)
        y = (slots // _GRID).astype(np.float64)

        lock_bytes = 0.0 if elide_locks else _N_ELEMENTS * 8.0
        counters.note_footprint(x.nbytes + y.nbytes + nets.nbytes + lock_bytes)

        # The move loop reads a handful of coordinates per move, so it runs
        # on Python lists; coordinates are integer-valued, so every cost is
        # an exact sum.  The refresh scans every net endpoint in numpy.
        xs, ys, peers = x.tolist(), y.tolist(), nets.tolist()

        def element_cost(idx: int) -> float:
            xi, yi = xs[idx], ys[idx]
            cost = 0.0
            for peer in peers[idx]:
                cost += abs(xi - xs[peer]) + abs(yi - ys[peer])
            return cost

        def total_cost() -> float:
            x, y = np.array(xs), np.array(ys)
            return float(
                np.abs(x[nets] - x[:, None]).sum() + np.abs(y[nets] - y[:, None]).sum()
            )

        kept = set(perforated_indices(_MOVES, keep_moves).tolist())
        temperature = 20.0
        for step in range(_MOVES):
            if step % _REFRESH_EVERY == 0:
                # Cost-tracking refresh: scans every net endpoint.  Runs on a
                # wall-clock schedule, so perforation does not thin it out.
                total_cost()
                counters.add(
                    work=_REFRESH_WORK_PER_ELEM * _N_ELEMENTS,
                    traffic=_REFRESH_TRAFFIC_PER_ELEM * _N_ELEMENTS * _NET_DEGREE,
                )
                temperature *= 0.80
            if step not in kept:
                continue
            a, b = rng.integers(0, _N_ELEMENTS, size=2).tolist()
            if a == b:
                counters.add(work=_MOVE_WORK * 0.2)
                continue
            before = element_cost(a) + element_cost(b)
            if elide_locks and rng.random() < _STALE_SWAP_RATE:
                # Raced against a concurrent swap: our "before" is stale.
                before *= 1.0 + rng.normal(0.0, 0.05)
            else:
                counters.add(work=_LOCK_WORK, traffic=_LOCK_TRAFFIC)
            xs[a], xs[b] = xs[b], xs[a]
            ys[a], ys[b] = ys[b], ys[a]
            after = element_cost(a) + element_cost(b)
            counters.add(work=_MOVE_WORK, traffic=_MOVE_TRAFFIC)
            delta = after - before
            accept = delta < 0 or rng.random() < math.exp(
                -delta / max(temperature, 1e-9)
            )
            if not accept:
                xs[a], xs[b] = xs[b], xs[a]
                ys[a], ys[b] = ys[b], ys[a]
        return total_cost()

    def quality_loss(self, precise_output: float, approx_output: float) -> float:
        return cost_increase_pct(approx_output, precise_output)
