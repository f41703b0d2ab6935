"""Sweep helpers: Fig. 7 mix enumeration and Fig. 10 outcome breakdown."""

import math

import pytest

from repro.apps import ALL_APP_NAMES
from repro.cluster.sweeps import (
    OutcomeBreakdown,
    breakdown_outcomes,
    combination_mixes,
)


class TestCombinationMixes:
    @pytest.mark.parametrize("k", [2, 3])
    def test_full_enumeration_is_every_k_subset(self, k):
        mixes = combination_mixes(ALL_APP_NAMES, k)
        assert len(mixes) == math.comb(len(ALL_APP_NAMES), k)
        assert len({frozenset(mix) for mix in mixes}) == len(mixes)
        assert all(len(set(mix)) == k for mix in mixes)

    def test_sample_is_deterministic_given_seed(self):
        first = combination_mixes(ALL_APP_NAMES, 3, sample=20, seed=5)
        again = combination_mixes(ALL_APP_NAMES, 3, sample=20, seed=5)
        assert first == again
        assert len(first) == 20

    def test_seed_changes_sample(self):
        a = combination_mixes(ALL_APP_NAMES, 3, sample=20, seed=5)
        b = combination_mixes(ALL_APP_NAMES, 3, sample=20, seed=6)
        assert a != b

    def test_sample_keeps_enumeration_order(self):
        full = combination_mixes(ALL_APP_NAMES, 2)
        sample = combination_mixes(ALL_APP_NAMES, 2, sample=30, seed=1)
        positions = [full.index(mix) for mix in sample]
        assert positions == sorted(set(positions))

    def test_oversized_sample_returns_everything(self):
        names = ALL_APP_NAMES[:5]
        full = combination_mixes(names, 2)
        assert combination_mixes(names, 2, sample=len(full)) == full
        assert combination_mixes(names, 2, sample=100) == full


class _Run:
    """Stands in for a ColocationResult: only the reclaim count is read."""

    def __init__(self, reclaimed: int) -> None:
        self._reclaimed = reclaimed

    def sustained_cores_reclaimed(self) -> int:
        return self._reclaimed


class TestBreakdownOutcomes:
    def test_buckets_by_sustained_reclaim(self):
        runs = [_Run(n) for n in (0, 0, 1, 2, 2, 2, 3, 4, 7)]
        assert breakdown_outcomes(runs) == OutcomeBreakdown(
            approx_only=2,
            one_core=1,
            two_cores=3,
            three_cores=1,
            four_plus_cores=2,
        )

    def test_no_runs_is_empty(self):
        assert breakdown_outcomes([]) == OutcomeBreakdown()
        assert breakdown_outcomes([]).total == 0


class TestOutcomeBreakdown:
    def test_totals(self):
        breakdown = OutcomeBreakdown(approx_only=2, one_core=3, two_cores=1)
        assert breakdown.total == 6
        fractions = breakdown.fractions()
        assert fractions["approx_only"] == pytest.approx(2 / 6)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_safe(self):
        assert OutcomeBreakdown().fractions()["approx_only"] == 0.0
