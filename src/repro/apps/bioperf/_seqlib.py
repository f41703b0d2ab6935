"""Shared sequence utilities for the BioPerf kernels.

Sequences are integer arrays: DNA over {0..3}, protein over {0..19}.
Provides mutation-based family generation (so alignments have real signal),
Needleman-Wunsch global alignment, Smith-Waterman local alignment, and a
sum-of-pairs score for multiple alignments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DNA_ALPHABET = 4
PROTEIN_ALPHABET = 20

MATCH_SCORE = 2.0
MISMATCH_SCORE = -1.0
GAP_PENALTY = -2.0
GAP_SYMBOL = -1


def random_sequence(
    rng: np.random.Generator, length: int, alphabet: int = DNA_ALPHABET
) -> np.ndarray:
    return rng.integers(0, alphabet, size=length)


def mutate_sequence(
    rng: np.random.Generator,
    sequence: np.ndarray,
    substitution_rate: float,
    indel_rate: float = 0.0,
    alphabet: int = DNA_ALPHABET,
) -> np.ndarray:
    """Substitutions plus optional single-symbol indels."""
    out = sequence.copy()
    substitutions = rng.random(len(out)) < substitution_rate
    out[substitutions] = rng.integers(0, alphabet, size=int(substitutions.sum()))
    if indel_rate > 0:
        result: list[int] = []
        for symbol in out:
            roll = rng.random()
            if roll < indel_rate / 2:
                continue  # deletion
            result.append(int(symbol))
            if roll > 1.0 - indel_rate / 2:
                result.append(int(rng.integers(0, alphabet)))  # insertion
        out = np.asarray(result if result else [0], dtype=np.int64)
    return out


def sequence_family(
    rng: np.random.Generator,
    count: int,
    length: int,
    substitution_rate: float = 0.15,
    indel_rate: float = 0.03,
    alphabet: int = DNA_ALPHABET,
) -> list[np.ndarray]:
    """A family of sequences mutated from a common ancestor."""
    ancestor = random_sequence(rng, length, alphabet)
    return [
        mutate_sequence(rng, ancestor, substitution_rate, indel_rate, alphabet)
        for _ in range(count)
    ]


def needleman_wunsch(
    a: np.ndarray,
    b: np.ndarray,
    band: int | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Global alignment; returns (score, gapped_a, gapped_b).

    ``band`` restricts the DP to a diagonal band (banded alignment), the
    classic approximation used by the perforated variants.
    """
    n, m = len(a), len(b)
    neg = -1e9
    score = np.full((n + 1, m + 1), neg)
    score[0, 0] = 0.0
    for i in range(1, n + 1):
        if band is None or abs(i) <= band:
            score[i, 0] = i * GAP_PENALTY
    for j in range(1, m + 1):
        if band is None or abs(j) <= band:
            score[0, j] = j * GAP_PENALTY
    for i in range(1, n + 1):
        j_low = 1 if band is None else max(1, i - band)
        j_high = m if band is None else min(m, i + band)
        for j in range(j_low, j_high + 1):
            match = MATCH_SCORE if a[i - 1] == b[j - 1] else MISMATCH_SCORE
            score[i, j] = max(
                score[i - 1, j - 1] + match,
                score[i - 1, j] + GAP_PENALTY,
                score[i, j - 1] + GAP_PENALTY,
            )
    # Traceback.
    gapped_a: list[int] = []
    gapped_b: list[int] = []
    i, j = n, m
    while i > 0 or j > 0:
        match = (
            MATCH_SCORE if i > 0 and j > 0 and a[i - 1] == b[j - 1] else MISMATCH_SCORE
        )
        if i > 0 and j > 0 and score[i, j] == score[i - 1, j - 1] + match:
            gapped_a.append(int(a[i - 1]))
            gapped_b.append(int(b[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and score[i, j] == score[i - 1, j] + GAP_PENALTY:
            gapped_a.append(int(a[i - 1]))
            gapped_b.append(GAP_SYMBOL)
            i -= 1
        elif j > 0:
            gapped_a.append(GAP_SYMBOL)
            gapped_b.append(int(b[j - 1]))
            j -= 1
        else:
            gapped_a.append(int(a[i - 1]))
            gapped_b.append(GAP_SYMBOL)
            i -= 1
    return (
        float(score[n, m]),
        np.asarray(gapped_a[::-1]),
        np.asarray(gapped_b[::-1]),
    )


def _horizontal_gap_closure(candidate: np.ndarray, gap: float) -> np.ndarray:
    """Vectorized closure of ``cur[j] = max(cand[j], max_k<=j cand[k]+(j-k)*gap)``.

    Uses the classic transform t[k] = cand[k] - k*gap, whose running maximum
    turns the chained-gap recurrence into one ``maximum.accumulate``.  Works
    along the last axis, so a ``(rows, m)`` stack closes every row at once.
    """
    positions = np.arange(candidate.shape[-1], dtype=np.float64)
    shifted = candidate - positions * gap
    return np.maximum.accumulate(shifted, axis=-1) + positions * gap


def smith_waterman_scores(
    queries: Sequence[np.ndarray], windows: np.ndarray
) -> np.ndarray:
    """Local alignment scores (no traceback) of each ``queries[r]`` against
    row ``r`` of the ``(count, m)`` stack ``windows``.

    One row-vectorized recurrence step per query position advances every
    row at once; each row's score is exactly the one it would get on its
    own.  Rows run longest query first, so the rows whose query still has
    symbols left at any step are a prefix of the stack.
    """
    count, m = windows.shape
    if len(queries) != count:
        raise ValueError(f"{len(queries)} queries for {count} windows")
    lengths = np.fromiter((len(q) for q in queries), dtype=np.int64, count=count)
    order = np.argsort(-lengths, kind="stable")
    longest = int(lengths.max(initial=0))
    symbols = np.zeros((longest, count), dtype=np.int64)
    for row, index in enumerate(order):
        symbols[: lengths[index], row] = queries[index]
    # Window position runs down axis 0 and rows across axis 1, so every
    # step's work, the gap closure included, is vectorized over the rows.
    columns = np.ascontiguousarray(windows[order].T)
    active_rows = (lengths[:, None] > np.arange(longest)).sum(axis=0)
    gaps = (np.arange(m + 1, dtype=np.float64) * GAP_PENALTY)[:, None]
    # The DP at the previous and at the current query position, swapped
    # every step; window position 0 stays 0 in both.
    previous, current = np.zeros((2, m + 1, count))
    best = np.zeros(count)
    for step, active in enumerate(active_rows.tolist()):
        diagonal = np.where(
            columns[:, :active] == symbols[step, :active], MATCH_SCORE, MISMATCH_SCORE
        )
        np.add(previous[:-1, :active], diagonal, out=diagonal)
        cells = current[:, :active]
        np.add(previous[1:, :active], GAP_PENALTY, out=cells[1:])
        np.maximum(diagonal, cells[1:], out=cells[1:])
        np.maximum(cells, 0.0, out=cells)
        # The horizontal-gap closure of _horizontal_gap_closure, its running
        # maximum taken one window position at a time: each call spans all
        # active rows, where maximum.accumulate would loop per row.  The
        # closure never lowers a cell, so the cells stay non-negative.
        np.subtract(cells, gaps, out=cells)
        for j in range(1, m + 1):
            np.maximum(cells[j - 1], cells[j], out=cells[j])
        np.add(cells, gaps, out=cells)
        np.maximum(best[:active], cells.max(axis=0), out=best[:active])
        previous, current = current, previous
    scores = np.empty(count)
    scores[order] = best
    return scores


def smith_waterman_score(a: np.ndarray, b: np.ndarray) -> float:
    """Local alignment score (no traceback) of ``a`` against ``b``."""
    return float(smith_waterman_scores([a], b[np.newaxis])[0])


def encode_kmers(sequence: np.ndarray, k: int, alphabet: int = DNA_ALPHABET) -> np.ndarray:
    """Encode every k-mer of ``sequence`` as a base-``alphabet`` integer."""
    if len(sequence) < k:
        return np.empty(0, dtype=np.int64)
    powers = alphabet ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(sequence, k)
    return windows @ powers


def sum_of_pairs_score(alignment: np.ndarray) -> float:
    """Sum-of-pairs score of a multiple alignment (rows x columns)."""
    total = 0.0
    rows = alignment.shape[0]
    for i in range(rows):
        for j in range(i + 1, rows):
            a, b = alignment[i], alignment[j]
            both = (a != GAP_SYMBOL) & (b != GAP_SYMBOL)
            matches = both & (a == b)
            mismatches = both & (a != b)
            gaps = (a == GAP_SYMBOL) ^ (b == GAP_SYMBOL)
            total += (
                MATCH_SCORE * matches.sum()
                + MISMATCH_SCORE * mismatches.sum()
                + GAP_PENALTY * gaps.sum()
            )
    return float(total)


def pad_alignment(rows: list[np.ndarray]) -> np.ndarray:
    """Right-pad gapped rows with gap symbols to a rectangular matrix."""
    width = max(len(row) for row in rows)
    out = np.full((len(rows), width), GAP_SYMBOL, dtype=np.int64)
    for index, row in enumerate(rows):
        out[index, : len(row)] = row
    return out
