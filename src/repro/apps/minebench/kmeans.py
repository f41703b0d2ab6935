"""K-means clustering (MineBench).

Lloyd's algorithm over a gaussian-mixture dataset.  The assignment scan —
every point against every centroid — dominates both work and traffic.

Approximation knobs
-------------------
``perforate_points``  — assign only a sampled fraction of points each
    iteration; unsampled points keep their previous labels.
``perforate_iters``   — run fewer Lloyd iterations.
``async_update``      — elide the centroid-accumulator locks: a fraction of
    point contributions is lost to races (stale accumulators), saving the
    lock traffic.

The paper calls out kmeans+NGINX as a colocation where approximation alone
cannot restore QoS; kmeans's heavy footprint and bandwidth profile below is
what recreates that.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro import units
from repro.apps.base import AppMetadata, ApproximableApp, KernelCounters
from repro.apps.knobs import (
    Knob,
    LoopPerforation,
    SyncElision,
    perforated_count,
    perforated_indices,
)
from repro.apps.quality import cost_increase_pct
from repro.server.resources import ResourceProfile

_N_POINTS = 2000
_N_CLUSTERS = 16
_TRUE_CLUSTERS = 48
_DIM = 12
_ITERS = 10
_LOST_UPDATE_RATE = 0.03
_ASSIGN_WORK = 1.0
_POINT_TRAFFIC = float(_DIM) * 8.0
_LOCK_TRAFFIC = 64.0
_LOCK_WORK = 0.08


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared distances, each difference squared in place."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.square(diff, out=diff).sum(axis=2)


class KMeans(ApproximableApp):
    """Lloyd's k-means (MineBench)."""

    metadata = AppMetadata(
        name="kmeans",
        suite="minebench",
        nominal_exec_time=30.0,
        parallel_fraction=0.90,
        dynrio_overhead=0.034,
        profile=ResourceProfile(
            llc_footprint_bytes=units.mb(56),
            llc_intensity=0.85,
            membw_per_core=units.gbytes_per_sec(8.0),
        ),
    )

    def knobs(self) -> dict[str, Knob]:
        return {
            "perforate_points": LoopPerforation(
                "perforate_points", (0.80, 0.60, 0.45, 0.30)
            ),
            "perforate_iters": LoopPerforation("perforate_iters", (0.66, 0.40)),
            "async_update": SyncElision("async_update"),
        }

    def run_kernel(
        self,
        settings: Mapping[str, Any],
        counters: KernelCounters,
        rng: np.random.Generator,
    ) -> float:
        keep_points = settings["perforate_points"]
        keep_iters = settings["perforate_iters"]
        async_update = settings["async_update"]

        # More latent structure than fitted clusters (48 blobs, k=16) makes
        # the optimization landscape rugged, so sampling genuinely moves the
        # solution — flat gaussian mixtures are trivially robust to it.
        true_centers = rng.normal(0.0, 4.0, size=(_TRUE_CLUSTERS, _DIM))
        membership = rng.integers(0, _TRUE_CLUSTERS, size=_N_POINTS)
        points = true_centers[membership] + rng.normal(
            0.0, 1.2, size=(_N_POINTS, _DIM)
        )
        lock_bytes = 0.0 if async_update else _N_CLUSTERS * 64.0
        counters.note_footprint(points.nbytes + lock_bytes)

        centroids = points[rng.choice(_N_POINTS, _N_CLUSTERS, replace=False)].copy()
        labels = np.zeros(_N_POINTS, dtype=np.int64)
        iters = perforated_count(_ITERS, keep_iters)
        sampled = perforated_indices(_N_POINTS, keep_points)
        subset = points[sampled]
        for _ in range(iters):
            labels[sampled] = _squared_distances(subset, centroids).argmin(axis=1)
            counters.add(
                work=_ASSIGN_WORK * len(sampled) * _N_CLUSTERS,
                traffic=_POINT_TRAFFIC * len(sampled),
            )
            if not async_update:
                counters.add(
                    work=_LOCK_WORK * len(sampled),
                    traffic=_LOCK_TRAFFIC * len(sampled),
                )
            contributors, contributor_labels = subset, labels[sampled]
            if async_update:
                survived = rng.random(len(sampled)) >= _LOST_UPDATE_RATE
                contributors = subset[survived]
                contributor_labels = contributor_labels[survived]
            for j in range(_N_CLUSTERS):
                members = contributors[contributor_labels == j]
                if len(members):
                    centroids[j] = members.mean(axis=0)

        return float(_squared_distances(points, centroids).min(axis=1).sum())

    def quality_loss(self, precise_output: float, approx_output: float) -> float:
        return cost_increase_pct(approx_output, precise_output)
