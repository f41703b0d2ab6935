"""BioPerf shared sequence library."""

import numpy as np
import pytest

from repro.apps.bioperf._seqlib import (
    GAP_PENALTY,
    GAP_SYMBOL,
    MATCH_SCORE,
    MISMATCH_SCORE,
    PROTEIN_ALPHABET,
    _horizontal_gap_closure,
    encode_kmers,
    mutate_sequence,
    needleman_wunsch,
    pad_alignment,
    random_sequence,
    sequence_family,
    smith_waterman_score,
    smith_waterman_scores,
    sum_of_pairs_score,
)
from repro.rng import generator


class TestSequenceGeneration:
    def test_alphabet_respected(self):
        seq = random_sequence(generator(1), 500, alphabet=4)
        assert seq.min() >= 0 and seq.max() < 4

    def test_mutation_rate(self):
        rng = generator(2)
        seq = random_sequence(rng, 2000)
        mutated = mutate_sequence(rng, seq, substitution_rate=0.2)
        changed = (seq != mutated).mean()
        assert 0.1 < changed < 0.25  # 0.2 * (3/4 actually change)

    def test_indels_change_length(self):
        rng = generator(3)
        seq = random_sequence(rng, 500)
        mutated = mutate_sequence(rng, seq, 0.0, indel_rate=0.2)
        assert len(mutated) != len(seq)

    def test_family_related(self):
        family = sequence_family(generator(4), 4, 100, substitution_rate=0.1,
                                 indel_rate=0.0)
        a, b = family[0], family[1]
        identity = (a == b).mean()
        assert identity > 0.6  # far above the 0.25 random baseline


class TestNeedlemanWunsch:
    def test_identical_sequences(self):
        seq = random_sequence(generator(5), 40)
        score, ga, gb = needleman_wunsch(seq, seq)
        assert score == pytest.approx(2.0 * len(seq))
        assert np.array_equal(ga, gb)

    def test_gapped_rows_equal_length(self):
        rng = generator(6)
        a, b = random_sequence(rng, 30), random_sequence(rng, 38)
        _, ga, gb = needleman_wunsch(a, b)
        assert len(ga) == len(gb)

    def test_traceback_preserves_sequences(self):
        rng = generator(7)
        a, b = random_sequence(rng, 25), random_sequence(rng, 31)
        _, ga, gb = needleman_wunsch(a, b)
        assert np.array_equal(ga[ga != GAP_SYMBOL], a)
        assert np.array_equal(gb[gb != GAP_SYMBOL], b)

    def test_band_bounds_score(self):
        rng = generator(8)
        a = random_sequence(rng, 40)
        b = mutate_sequence(rng, a, 0.1, 0.05)
        full, _, _ = needleman_wunsch(a, b)
        banded, _, _ = needleman_wunsch(a, b, band=6)
        assert banded <= full + 1e-9


class TestSmithWaterman:
    def test_exact_substring(self):
        rng = generator(9)
        b = random_sequence(rng, 80)
        a = b[20:40].copy()
        assert smith_waterman_score(a, b) == pytest.approx(2.0 * len(a))

    def test_nonnegative(self):
        rng = generator(10)
        a, b = random_sequence(rng, 20), random_sequence(rng, 20)
        assert smith_waterman_score(a, b) >= 0.0

    def test_local_beats_unrelated_flanks(self):
        rng = generator(11)
        core = random_sequence(rng, 15)
        hay = np.concatenate([random_sequence(rng, 30), core, random_sequence(rng, 30)])
        assert smith_waterman_score(core, hay) >= 0.8 * 2.0 * len(core)


class TestGapClosure:
    def test_matches_naive_recurrence(self):
        rng = generator(12)
        candidate = rng.normal(0, 5, size=50)
        gap = -2.0
        fast = _horizontal_gap_closure(candidate, gap)
        slow = candidate.copy()
        for j in range(1, len(slow)):
            slow[j] = max(slow[j], slow[j - 1] + gap)
        assert np.allclose(fast, slow)


def _naive_smith_waterman(a, b) -> float:
    """The textbook cell-by-cell local-alignment recurrence."""
    previous = [0.0] * (len(b) + 1)
    best = 0.0
    for symbol in a:
        current = [0.0]
        for j, other in enumerate(b, start=1):
            match = MATCH_SCORE if symbol == other else MISMATCH_SCORE
            current.append(
                max(
                    0.0,
                    previous[j - 1] + match,
                    previous[j] + GAP_PENALTY,
                    current[j - 1] + GAP_PENALTY,
                )
            )
        best = max(best, *current)
        previous = current
    return best


class TestSmithWatermanBatch:
    @pytest.mark.parametrize(
        "alphabet, count, query_len, window_len",
        [
            (4, 12, 48, 56),
            (4, 1, 30, 40),  # a batch of one
            (4, 9, 40, 17),  # windows shorter than the query
            (PROTEIN_ALPHABET, 7, 25, 33),
            (PROTEIN_ALPHABET, 5, 20, 6),
        ],
    )
    def test_batch_equals_one_at_a_time(self, alphabet, count, query_len, window_len):
        rng = generator(14 + count + window_len)
        query = random_sequence(rng, query_len, alphabet)
        windows = np.stack(
            [
                mutate_sequence(rng, random_sequence(rng, window_len, alphabet), 0.3,
                                alphabet=alphabet)
                for _ in range(count)
            ]
        )
        windows[0, : min(10, window_len)] = query[: min(10, window_len)]
        batch = smith_waterman_scores([query] * count, windows)
        assert batch.shape == (count,)
        assert batch.tolist() == [smith_waterman_score(query, w) for w in windows]
        assert batch.tolist() == [_naive_smith_waterman(query, w) for w in windows]

    @pytest.mark.parametrize("alphabet, seed", [(4, 0), (4, 1), (PROTEIN_ALPHABET, 2)])
    def test_one_query_per_row(self, alphabet, seed):
        # Queries of mixed lengths, ties included, in no particular order:
        # rows finish at different steps and must come back in input order.
        rng = generator(30 + seed)
        window_len = 24
        lengths = [12, 31, 1, 31, 7, 0, 19, 12, 40]
        queries = [random_sequence(rng, n, alphabet) for n in lengths]
        windows = np.stack(
            [random_sequence(rng, window_len, alphabet) for _ in queries]
        )
        windows[1, 3:15] = queries[1][:12]  # one strong local match
        batch = smith_waterman_scores(queries, windows)
        assert batch.tolist() == [
            smith_waterman_score(q, w) for q, w in zip(queries, windows)
        ]
        assert batch.tolist() == [
            _naive_smith_waterman(q, w) for q, w in zip(queries, windows)
        ]
        assert batch[1] >= 2.0 * 12

    def test_empty_batch(self):
        assert smith_waterman_scores([], np.empty((0, 8), dtype=np.int64)).shape == (0,)

    def test_one_query_per_window_required(self):
        query = random_sequence(generator(15), 10)
        with pytest.raises(ValueError, match="queries"):
            smith_waterman_scores([query], np.zeros((2, 8), dtype=np.int64))


class TestGapClosureRows:
    def test_rows_match_naive_recurrence_exactly(self):
        rng = generator(16)
        candidate = rng.integers(-20, 20, size=(6, 40)).astype(np.float64)
        closed = _horizontal_gap_closure(candidate, GAP_PENALTY)
        for row, got in zip(candidate, closed):
            slow = row.copy()
            for j in range(1, len(slow)):
                slow[j] = max(slow[j], slow[j - 1] + GAP_PENALTY)
            assert got.tolist() == slow.tolist()

    def test_rows_match_one_dimensional_calls(self):
        rng = generator(17)
        candidate = rng.integers(-20, 20, size=(4, 25)).astype(np.float64)
        closed = _horizontal_gap_closure(candidate, GAP_PENALTY)
        for row, got in zip(candidate, closed):
            assert got.tolist() == _horizontal_gap_closure(row, GAP_PENALTY).tolist()


class TestKmers:
    def test_count(self):
        seq = random_sequence(generator(13), 100)
        assert len(encode_kmers(seq, 4)) == 97

    def test_codes_unique_per_kmer(self):
        a = np.asarray([0, 1, 2, 3])
        b = np.asarray([3, 2, 1, 0])
        assert encode_kmers(a, 4)[0] != encode_kmers(b, 4)[0]

    def test_short_sequence(self):
        assert len(encode_kmers(np.asarray([1, 2]), 4)) == 0


class TestSumOfPairs:
    def test_identical_rows(self):
        row = random_sequence(generator(14), 30)
        alignment = np.stack([row, row, row])
        assert sum_of_pairs_score(alignment) == pytest.approx(3 * 2.0 * 30)

    def test_gaps_penalized(self):
        row = random_sequence(generator(15), 10)
        gapped = row.copy()
        gapped[0] = GAP_SYMBOL
        with_gap = sum_of_pairs_score(np.stack([row, gapped]))
        without = sum_of_pairs_score(np.stack([row, row]))
        assert with_gap < without


class TestPadAlignment:
    def test_rectangular(self):
        rows = [np.asarray([1, 2, 3]), np.asarray([1, 2])]
        padded = pad_alignment(rows)
        assert padded.shape == (2, 3)
        assert padded[1, 2] == GAP_SYMBOL
