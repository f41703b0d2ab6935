"""Per-app behaviors the paper's narrative depends on."""

import numpy as np
import pytest

from repro.apps import VariantSpec, make_app
from repro.apps.knobs import perforated_indices
from repro.apps.splash2.water_nsquared import pair_force_bins, sum_pair_forces


class TestCanneal:
    """Approximation shortens canneal without shedding contention (6.1)."""

    def test_perforation_keeps_contention(self):
        app = make_app("canneal")
        mv = app.measure(VariantSpec({"perforate_moves": 0.28}), seed=0)
        assert mv.time_factor < 0.75
        assert mv.traffic_rate_factor > 0.95

    def test_elision_is_nondeterministic_knob(self):
        app = make_app("canneal")
        assert "elide_swap_locks" in app.knobs()


class TestSnp:
    """Sync elision makes SNP a strong decontention app (6.1)."""

    def test_elision_cuts_traffic_rate(self):
        app = make_app("snp")
        mv = app.measure(VariantSpec({"elide_locks": True}), seed=0)
        assert mv.traffic_rate_factor < 0.5
        assert mv.inaccuracy_pct < 5.0

    def test_elision_shrinks_footprint(self):
        app = make_app("snp")
        mv = app.measure(VariantSpec({"elide_locks": True}), seed=0)
        assert mv.footprint_factor < 1.0


class TestWaterSpatial:
    """Vertical line in Fig. 1: quality drops, execution time barely."""

    def test_perforation_barely_shortens(self):
        app = make_app("water_spatial")
        mv = app.measure(VariantSpec({"perforate_correction": 0.12}), seed=0)
        assert mv.time_factor > 0.85

    def test_has_worst_dynrio_overhead(self):
        from repro.apps import ALL_APP_NAMES

        overheads = {
            name: make_app(name).metadata.dynrio_overhead for name in ALL_APP_NAMES
        }
        assert max(overheads, key=overheads.get) == "water_spatial"


def _add_at_reference(i_k, j_k, pair_force, n_atoms):
    """The per-atom force sum as water_nsquared first computed it."""
    out = np.zeros((n_atoms, 3))
    np.add.at(out, i_k, pair_force)
    np.add.at(out, j_k, -pair_force)
    return out


class TestWaterNSquaredForceSum:
    """One bincount adds exactly what the two ``np.add.at`` calls added."""

    @pytest.mark.parametrize("keep", [1.0, 0.8, 0.5, 0.35])
    def test_perforated_pairs(self, keep):
        n_atoms = 60
        i_upper, j_upper = np.triu_indices(n_atoms, k=1)
        kept = perforated_indices(len(i_upper), keep)
        self._check(i_upper[kept], j_upper[kept], n_atoms, seed=int(keep * 100))

    @pytest.mark.parametrize("seed", range(4))
    def test_unordered_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        n_atoms = 25
        i_k, j_k = rng.integers(0, n_atoms, size=(2, 900))
        self._check(i_k, j_k, n_atoms, seed)

    @staticmethod
    def _check(i_k, j_k, n_atoms, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes over twelve decades, so any regrouped sum rounds
        # differently somewhere.
        pair_force = rng.normal(size=(len(i_k), 3)) * 10.0 ** rng.integers(
            -6, 6, size=(len(i_k), 1)
        )
        got = sum_pair_forces(pair_force_bins(i_k, j_k), pair_force, n_atoms)
        expected = _add_at_reference(i_k, j_k, pair_force, n_atoms)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestRaytrace:
    """Tiny inaccuracies (Fig. 1 axis < a few %)."""

    def test_all_variants_low_inaccuracy(self):
        app = make_app("raytrace")
        knobs = app.knobs()
        for name, knob in knobs.items():
            for value in knob.candidates:
                mv = app.measure(VariantSpec({name: value}), seed=0)
                assert mv.inaccuracy_pct < 5.0


class TestBayesianRichSpace:
    """bayesian exposes a graded, monotone-ish quality/time trade-off."""

    def test_row_perforation_monotone_time(self):
        app = make_app("bayesian")
        factors = [
            app.measure(VariantSpec({"perforate_rows": keep}), seed=0).time_factor
            for keep in (0.85, 0.55, 0.30)
        ]
        assert factors == sorted(factors, reverse=True)


class TestKMeans:
    def test_iteration_perforation_degrades_quality(self):
        app = make_app("kmeans")
        mild = app.measure(VariantSpec({"perforate_iters": 0.66}), seed=0)
        harsh = app.measure(
            VariantSpec({"perforate_iters": 0.40, "perforate_points": 0.30}), seed=0
        )
        assert harsh.time_factor < mild.time_factor

    def test_async_update_is_elision(self):
        app = make_app("kmeans")
        mv = app.measure(VariantSpec({"async_update": True}), seed=0)
        assert mv.traffic_rate_factor < 1.0


class TestPrecisionKnobs:
    @pytest.mark.parametrize("app_name", ["plsa", "fuzzy_kmeans", "svmrfe"])
    def test_float32_cheap_in_quality(self, app_name):
        app = make_app(app_name)
        mv = app.measure(VariantSpec({"precision": "float32"}), seed=0)
        assert mv.inaccuracy_pct < 2.0
        assert mv.traffic_rate_factor < 1.0


class TestHmmer:
    def test_band_narrowing_loses_hits(self):
        app = make_app("hmmer")
        wide = app.measure(VariantSpec({"viterbi_band": 0.60}), seed=0)
        narrow = app.measure(VariantSpec({"viterbi_band": 0.22}), seed=0)
        assert narrow.time_factor < wide.time_factor
        assert narrow.inaccuracy_pct >= wide.inaccuracy_pct


class TestGlimmer:
    def test_order_reduction_graceful(self):
        app = make_app("glimmer")
        mv = app.measure(VariantSpec({"max_order": 0.4}), seed=0)
        assert mv.inaccuracy_pct < 10.0
        assert mv.time_factor < 1.0


class TestGrappa:
    def test_move_perforation_costs_quality(self):
        app = make_app("grappa")
        mild = app.measure(VariantSpec({"perforate_moves": 0.70}), seed=0)
        harsh = app.measure(VariantSpec({"perforate_moves": 0.32}), seed=0)
        assert harsh.inaccuracy_pct >= mild.inaccuracy_pct
