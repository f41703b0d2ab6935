"""blast: seed-and-extend local sequence search (BioPerf).

For each query, count exact k-mer seed matches against every database
sequence, then extend the best-seeded sequences with a local
(Smith-Waterman) rescoring of their first ``_EXTEND_WINDOW`` symbols.  Real
blast extends around each seed hit; this kernel rescores a fixed prefix
instead, so a hit outside the prefix only counts through its seed score.
Output is the best alignment score per query.

Approximation knobs
-------------------
``perforate_extensions`` — extend only the top fraction of seed hits per
    query (ranked by seed count), approximating the rest with their seed
    scores.
``perforate_database``   — scan a sampled fraction of the database.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro import units
from repro.apps.base import AppMetadata, ApproximableApp, KernelCounters
from repro.apps.knobs import Knob, LoopPerforation, perforated_count, perforated_indices
from repro.apps.quality import relative_error_pct
from repro.server.resources import ResourceProfile
from repro.apps.bioperf._seqlib import (
    encode_kmers,
    mutate_sequence,
    random_sequence,
    smith_waterman_scores,
)

_N_DATABASE = 160
_DB_LEN = 160
_N_QUERIES = 10
_QUERY_LEN = 48
_KMER = 5
_EXTEND_WINDOW = 56
_SEED_WORK = 0.05
_SEED_TRAFFIC = 4.0
_EXTEND_WORK = 1.0
_EXTEND_TRAFFIC = 8.0


class Blast(ApproximableApp):
    """Seed-and-extend local alignment search (BioPerf)."""

    metadata = AppMetadata(
        name="blast",
        suite="bioperf",
        nominal_exec_time=30.0,
        parallel_fraction=0.88,
        dynrio_overhead=0.031,
        profile=ResourceProfile(
            llc_footprint_bytes=units.mb(34),
            llc_intensity=0.68,
            membw_per_core=units.gbytes_per_sec(5.6),
        ),
    )

    def knobs(self) -> dict[str, Knob]:
        return {
            "perforate_extensions": LoopPerforation(
                "perforate_extensions", (0.70, 0.45, 0.25)
            ),
            "perforate_database": LoopPerforation("perforate_database", (0.70, 0.50)),
        }

    def run_kernel(
        self,
        settings: Mapping[str, Any],
        counters: KernelCounters,
        rng: np.random.Generator,
    ) -> np.ndarray:
        keep_extensions = settings["perforate_extensions"]
        keep_database = settings["perforate_database"]

        database = [random_sequence(rng, _DB_LEN) for _ in range(_N_DATABASE)]
        queries = []
        for _ in range(_N_QUERIES):
            # Each query is a mutated excerpt of some database sequence, so
            # a strong true alignment exists.
            source = database[rng.integers(0, _N_DATABASE)]
            start = rng.integers(0, _DB_LEN - _QUERY_LEN)
            queries.append(
                mutate_sequence(rng, source[start : start + _QUERY_LEN], 0.12, 0.02)
            )
        counters.note_footprint(_N_DATABASE * _DB_LEN * 8.0 + units.mb(0.5))

        db_subset = perforated_indices(_N_DATABASE, keep_database)
        # Every database sequence has the same length, so its k-mers and
        # extension windows stack into matrices scanned once per query.
        subset_kmers = np.stack([encode_kmers(database[i], _KMER) for i in db_subset])
        windows = np.stack(database)[:, :_EXTEND_WINDOW]
        seed_work = _SEED_WORK * subset_kmers.shape[1]
        seed_traffic = _SEED_TRAFFIC * subset_kmers.shape[1]
        window_len = windows.shape[1]
        best_scores = np.zeros(_N_QUERIES)
        for q_index, query in enumerate(queries):
            query_kmers = np.unique(encode_kmers(query, _KMER))
            # Seed pass: count k-mer hits per database sequence.
            seed_counts = np.zeros(_N_DATABASE)
            seed_counts[db_subset] = np.isin(subset_kmers, query_kmers).sum(axis=1)
            # One add per sequence, as a per-sequence loop would: float
            # sums are not associative, so one merged add would move work.
            for _ in db_subset:
                counters.add(work=seed_work, traffic=seed_traffic)
            # Extension pass: local rescoring of the top candidates only.
            candidates = np.argsort(seed_counts)[::-1]
            candidates = candidates[seed_counts[candidates] > 0]
            extended = candidates[
                : perforated_count(max(len(candidates), 1), keep_extensions)
            ]
            scores = smith_waterman_scores(query, windows[extended])
            for _ in extended:
                counters.add(
                    work=_EXTEND_WORK * len(query) * window_len,
                    traffic=_EXTEND_TRAFFIC * window_len,
                )
            best = max([0.0, *scores.tolist()])
            skipped = candidates[len(extended):]
            if len(skipped):
                # Skipped candidates contribute their (conservative) seed
                # score — always a lower bound on the extended score.
                best = max(best, float(seed_counts[skipped].max()) * 1.0)
            best_scores[q_index] = best
        return best_scores

    def quality_loss(
        self, precise_output: np.ndarray, approx_output: np.ndarray
    ) -> float:
        return relative_error_pct(approx_output, precise_output)
