"""water_nsquared: O(N^2) molecular dynamics of a Lennard-Jones fluid.

SPLASH-2's water_nsquared evaluates all pairwise interactions between
molecules every timestep.  This kernel runs velocity-Verlet MD with a
Lennard-Jones potential over all pairs of a small atom box.

Approximation knobs
-------------------
``perforate_pairs`` — evaluate only a fraction of the pair interactions
    (compensated by rescaling).  The pair loop is *compute*-heavy relative
    to its traffic (N^2 arithmetic over N atoms of data), so perforation
    shortens execution much faster than it sheds memory traffic — which is
    why the paper finds approximation alone does not help memcached much
    when colocated with water_nsquared.
``precision`` — positions/velocities at reduced precision.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro import units
from repro.apps.base import AppMetadata, ApproximableApp, KernelCounters
from repro.apps.knobs import (
    Knob,
    LoopPerforation,
    PrecisionReduction,
    perforated_indices,
)
from repro.apps.quality import rmse_pct
from repro.server.resources import ResourceProfile

_N_ATOMS = 220
_STEPS = 4
_DT = 0.002
_PAIR_WORK = 1.0
_PAIR_TRAFFIC = 12.0  # bytes-equivalent per pair; deliberately small
_NEIGHBOR_REBUILD_TRAFFIC = 48.0  # per atom, unperforated
_INTEGRATE_WORK = 0.2


def pair_force_bins(i_k: np.ndarray, j_k: np.ndarray) -> np.ndarray:
    """Flat ``(atom, axis)`` bin of every term :func:`sum_pair_forces` adds:
    the ``i_k`` ends, then the ``j_k`` ends, each in pair order."""
    return (np.concatenate([i_k, j_k])[:, None] * 3 + np.arange(3)).ravel()


def sum_pair_forces(bins: np.ndarray, pair_force: np.ndarray, n_atoms: int) -> np.ndarray:
    """Per-atom force: ``+pair_force`` on each pair's ``i`` end, ``-pair_force``
    on its ``j`` end.

    One ``bincount`` adds the terms of each bin in the order that
    ``np.add.at(out, i_k, f)`` then ``np.add.at(out, j_k, -f)`` adds them,
    so the sums are bit-identical to those two calls.
    """
    terms = np.concatenate([pair_force, -pair_force]).ravel()
    return np.bincount(bins, weights=terms, minlength=3 * n_atoms).reshape(n_atoms, 3)


class WaterNSquared(ApproximableApp):
    """All-pairs molecular dynamics (SPLASH-2)."""

    metadata = AppMetadata(
        name="water_nsquared",
        suite="splash2",
        nominal_exec_time=30.0,
        parallel_fraction=0.92,
        dynrio_overhead=0.034,
        profile=ResourceProfile(
            llc_footprint_bytes=units.mb(20),
            llc_intensity=0.60,
            membw_per_core=units.gbytes_per_sec(5.0),
        ),
    )

    def knobs(self) -> dict[str, Knob]:
        return {
            "perforate_pairs": LoopPerforation(
                "perforate_pairs", (0.80, 0.65, 0.50, 0.35)
            ),
            "precision": PrecisionReduction("precision"),
        }

    def run_kernel(
        self,
        settings: Mapping[str, Any],
        counters: KernelCounters,
        rng: np.random.Generator,
    ) -> np.ndarray:
        keep_pairs = settings["perforate_pairs"]
        dtype = PrecisionReduction.dtype(settings["precision"])
        bytes_per_elem = PrecisionReduction.bytes_per_element(settings["precision"])

        side = int(round(_N_ATOMS ** (1 / 3))) + 1
        lattice = np.stack(
            np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)[:_N_ATOMS]
        pos = (lattice * 1.2 + rng.normal(0, 0.05, (_N_ATOMS, 3))).astype(dtype)
        vel = rng.normal(0, 0.3, (_N_ATOMS, 3)).astype(dtype)
        counters.note_footprint(2.0 * pos.size * bytes_per_elem)

        i_upper, j_upper = np.triu_indices(_N_ATOMS, k=1)
        kept = perforated_indices(len(i_upper), keep_pairs)
        i_k, j_k = i_upper[kept], j_upper[kept]
        compensation = 1.0 / keep_pairs
        bins = pair_force_bins(i_k, j_k)

        def forces(p: np.ndarray) -> np.ndarray:
            diff = p[i_k] - p[j_k]
            r2 = (diff**2).sum(axis=1) + 1e-9
            inv6 = (1.0 / r2) ** 3
            magnitude = 24.0 * (2.0 * inv6**2 - inv6) / r2
            pair_force = diff * magnitude[:, None] * compensation
            out = sum_pair_forces(bins, pair_force, _N_ATOMS)
            counters.add(
                work=_PAIR_WORK * len(i_k),
                traffic=_PAIR_TRAFFIC * len(i_k) * (bytes_per_elem / 8.0),
            )
            return out

        work_pos = pos.astype(np.float64)
        work_vel = vel.astype(np.float64)
        accel = forces(work_pos)
        for _ in range(_STEPS):
            # Neighbor-structure refresh: full scan regardless of perforation.
            counters.add(
                work=0.05 * _N_ATOMS,
                traffic=_NEIGHBOR_REBUILD_TRAFFIC * _N_ATOMS,
            )
            work_pos = work_pos + work_vel * _DT + 0.5 * accel * _DT**2
            new_accel = forces(work_pos)
            work_vel = work_vel + 0.5 * (accel + new_accel) * _DT
            accel = new_accel
            counters.add(work=_INTEGRATE_WORK * _N_ATOMS)
            work_pos = work_pos.astype(dtype).astype(np.float64)
            work_vel = work_vel.astype(dtype).astype(np.float64)

        return work_vel

    def quality_loss(
        self, precise_output: np.ndarray, approx_output: np.ndarray
    ) -> float:
        return rmse_pct(approx_output, precise_output)
