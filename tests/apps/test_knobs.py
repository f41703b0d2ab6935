"""Approximation knobs and perforation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knobs import (
    Knob,
    LoopPerforation,
    PrecisionReduction,
    SyncElision,
    perforated_count,
    perforated_indices,
)


class TestKnobBase:
    def test_all_values_includes_precise_first(self):
        knob = LoopPerforation("loop", (0.5, 0.3))
        assert knob.all_values() == (1.0, 0.5, 0.3)

    def test_rejects_precise_in_candidates(self):
        with pytest.raises(ValueError):
            Knob(name="x", precise_value=1, candidates=(1, 2))

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Knob(name="", precise_value=1, candidates=(2,))


class TestLoopPerforation:
    def test_valid_fractions(self):
        LoopPerforation("loop", (0.99, 0.01))

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2])
    def test_invalid_fractions(self, bad):
        with pytest.raises(ValueError):
            LoopPerforation("loop", (bad,))


class TestSyncElision:
    def test_boolean_values(self):
        knob = SyncElision("locks")
        assert knob.precise_value is False
        assert knob.candidates == (True,)


class TestPrecisionReduction:
    def test_default_candidates(self):
        knob = PrecisionReduction("prec")
        assert knob.precise_value == "float64"
        assert knob.candidates == ("float32", "float16")

    def test_dtype(self):
        assert PrecisionReduction.dtype("float32") == np.dtype("float32")

    def test_bytes(self):
        assert PrecisionReduction.bytes_per_element("float64") == 8
        assert PrecisionReduction.bytes_per_element("float16") == 2

    def test_traffic_ratio(self):
        assert PrecisionReduction.traffic_ratio("float32") == pytest.approx(0.5)

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            PrecisionReduction("prec", ("int8",))


class TestPerforatedCount:
    def test_full_keep(self):
        assert perforated_count(100, 1.0) == 100

    def test_half(self):
        assert perforated_count(100, 0.5) == 50

    def test_at_least_one(self):
        assert perforated_count(100, 0.001) == 1

    def test_zero_length(self):
        assert perforated_count(0, 0.5) == 0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            perforated_count(10, 0.0)
        with pytest.raises(ValueError):
            perforated_count(10, 1.5)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            perforated_count(-1, 0.5)


class TestPerforatedIndices:
    def test_full_keep_is_identity(self):
        assert np.array_equal(perforated_indices(10, 1.0), np.arange(10))

    def test_deterministic(self):
        a = perforated_indices(1000, 0.37)
        b = perforated_indices(1000, 0.37)
        assert np.array_equal(a, b)

    def test_in_range_and_sorted(self):
        idx = perforated_indices(500, 0.3)
        assert idx.min() >= 0 and idx.max() < 500
        assert np.array_equal(idx, np.sort(idx))

    def test_unique(self):
        idx = perforated_indices(100, 0.9)
        assert len(np.unique(idx)) == len(idx)

    def test_roughly_even_spacing(self):
        idx = perforated_indices(1000, 0.25)
        gaps = np.diff(idx)
        assert gaps.max() - gaps.min() <= 1

    def test_count_close_to_fraction(self):
        idx = perforated_indices(1000, 0.4)
        assert len(idx) == pytest.approx(400, abs=2)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=100_000),
    keep=st.floats(min_value=1e-6, max_value=1.0),
)
def test_perforated_indices_match_the_unique_reference(n, keep):
    """The neighbour mask gives exactly what ``np.unique`` of the rounded
    linspace gave: the same strictly increasing indices, one per kept
    iteration."""
    got = perforated_indices(n, keep)
    kept = perforated_count(n, keep)
    if kept:
        reference = np.unique(np.linspace(0, n - 1, kept).round().astype(np.int64))
    else:
        reference = np.empty(0, dtype=np.int64)
    assert got.dtype == reference.dtype
    assert np.array_equal(got, reference)
    assert np.all(np.diff(got) > 0)
    assert len(got) == kept
