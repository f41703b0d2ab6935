"""SNP: single-nucleotide-polymorphism linkage pattern discovery (MineBench).

Scans a genotype matrix for strongly linked SNP pairs: compute the r^2
linkage-disequilibrium statistic over candidate pairs and report the top
set.  The parallel version accumulates pair statistics into shared count
tables under locks.

Approximation knobs
-------------------
``perforate_pairs``  — scan only a fraction of the candidate pairs.
``elide_locks``      — accumulate into the shared tables without locks.
    Races lose a small fraction of increments (mild, nondeterministic
    quality noise), but the synchronization traffic — a large share of this
    kernel's memory activity — disappears, and the lock arrays leave the
    working set.  This is why the paper singles out SNP's variants as
    "particularly effective at reducing the amount of contention in the
    shared LLC": memcached and MongoDB meet QoS with approximation alone.
``precision``        — count tables at reduced precision.
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
    SyncElision,
    perforated_indices,
)
from repro.apps.quality import score_drop_pct
from repro.server.resources import ResourceProfile

_N_SNPS = 260
_N_INDIVIDUALS = 240
_TOP_PAIRS = 40
_LINKED_BLOCKS = 12
_PAIR_WORK = 1.0
_PAIR_TRAFFIC = 16.0
_LOCK_WORK = 0.10
_LOCK_TRAFFIC = 56.0
_LOST_INCREMENT_RATE = 0.005


class Snp(ApproximableApp):
    """Pairwise linkage-disequilibrium scan (MineBench)."""

    metadata = AppMetadata(
        name="snp",
        suite="minebench",
        nominal_exec_time=50.0,
        parallel_fraction=0.85,
        dynrio_overhead=0.022,
        profile=ResourceProfile(
            llc_footprint_bytes=units.mb(44),
            llc_intensity=0.80,
            membw_per_core=units.gbytes_per_sec(6.5),
        ),
    )

    def knobs(self) -> dict[str, Knob]:
        return {
            "perforate_pairs": LoopPerforation(
                "perforate_pairs", (0.90, 0.75, 0.58, 0.42)
            ),
            "elide_locks": SyncElision("elide_locks"),
            "precision": PrecisionReduction("precision", ("float32",)),
        }

    def run_kernel(
        self,
        settings: Mapping[str, Any],
        counters: KernelCounters,
        rng: np.random.Generator,
    ) -> float:
        keep_pairs = settings["perforate_pairs"]
        elide_locks = settings["elide_locks"]
        dtype = PrecisionReduction.dtype(settings["precision"])
        bytes_per_elem = PrecisionReduction.bytes_per_element(settings["precision"])

        # Genotypes with planted linked blocks: SNPs inside a block share a
        # latent haplotype, so their pairwise r^2 is high.
        genotypes = (rng.random((_N_SNPS, _N_INDIVIDUALS)) < 0.5).astype(np.float64)
        block_of = rng.integers(0, _LINKED_BLOCKS, size=_N_SNPS)
        haplotypes = (rng.random((_LINKED_BLOCKS, _N_INDIVIDUALS)) < 0.5).astype(
            np.float64
        )
        correlated = rng.random((_N_SNPS, _N_INDIVIDUALS)) < 0.8
        genotypes = np.where(correlated, haplotypes[block_of], genotypes)

        lock_bytes = 0.0 if elide_locks else _N_SNPS * 64.0
        counters.note_footprint(
            genotypes.nbytes + _N_SNPS * _N_SNPS // 8 * bytes_per_elem + lock_bytes
        )

        i_idx, j_idx = np.triu_indices(_N_SNPS, k=1)
        kept = perforated_indices(len(i_idx), keep_pairs)
        i_k, j_k = i_idx[kept], j_idx[kept]

        # Genotypes are 0/1, so every count below is an exact integer and
        # dividing it by the count of individuals is exactly ``mean``.
        frequency = genotypes.mean(axis=1)
        p_a = frequency[i_k]
        p_b = frequency[j_k]
        p_ab = (genotypes @ genotypes.T)[i_k, j_k] / _N_INDIVIDUALS
        if elide_locks:
            # Lost increments under racy accumulation: each pair's joint
            # count is computed from a slightly depleted tally.
            depletion = (
                rng.binomial(_N_INDIVIDUALS, _LOST_INCREMENT_RATE, size=len(i_k))
                / _N_INDIVIDUALS
            )
            p_ab = np.maximum(0.0, p_ab - depletion * p_ab)
        else:
            counters.add(
                work=_LOCK_WORK * len(i_k), traffic=_LOCK_TRAFFIC * len(i_k)
            )
        denom = p_a * (1 - p_a) * p_b * (1 - p_b)
        r2 = np.where(
            denom > 1e-12, (p_ab - p_a * p_b) ** 2 / np.maximum(denom, 1e-12), 0.0
        ).astype(dtype)
        counters.add(
            work=_PAIR_WORK * len(i_k),
            traffic=_PAIR_TRAFFIC * len(i_k) * (bytes_per_elem / 8.0),
        )

        # Output: total linkage mass recovered by the reported top pairs.
        # Planted blocks provide many interchangeable strong pairs, so a
        # perforated scan that reports *different* strong pairs loses little
        # quality — the domain metric MineBench's SNP kernel optimizes.
        order = np.argsort(r2.astype(np.float64))[::-1][:_TOP_PAIRS]
        return float(r2.astype(np.float64)[order].sum())

    def quality_loss(self, precise_output: float, approx_output: float) -> float:
        return score_drop_pct(approx_output, precise_output)
