"""Contract tests every one of the 24 kernels must satisfy.

These execute each real kernel (precise + its most aggressive variant), so
they double as integration tests of the measurement pipeline.
"""

import numpy as np
import pytest

from repro.apps import ALL_APP_NAMES, VariantSpec, make_app

#: Paper constraint: instrumentation overhead averages 3.8%, max 8.9%.
MAX_DYNRIO_OVERHEAD = 0.089


@pytest.fixture(scope="module")
def measured():
    """Precise + most-aggressive measurement for every app (run once)."""
    out = {}
    for name in ALL_APP_NAMES:
        app = make_app(name)
        knobs = app.knobs()
        aggressive = VariantSpec(
            {key: knob.candidates[-1] for key, knob in knobs.items()}
        )
        out[name] = (app, app.precise_run(seed=0), app.measure(aggressive, seed=0))
    return out


@pytest.mark.parametrize("name", ALL_APP_NAMES)
class TestKernelContract:
    def test_knobs_exist(self, name, measured):
        app, _, _ = measured[name]
        assert len(app.knobs()) >= 1

    def test_precise_run_does_work(self, name, measured):
        _, precise, _ = measured[name]
        assert precise.counters.work > 0
        assert precise.counters.mem_traffic > 0
        assert precise.counters.footprint > 0

    def test_aggressive_variant_is_faster(self, name, measured):
        _, _, variant = measured[name]
        assert variant.time_factor < 1.0

    def test_time_factor_above_fixed_floor(self, name, measured):
        _, _, variant = measured[name]
        assert variant.time_factor >= 0.18

    def test_inaccuracy_finite_and_bounded(self, name, measured):
        _, _, variant = measured[name]
        assert 0.0 <= variant.inaccuracy_pct < 100.0

    def test_traffic_rate_in_clamp(self, name, measured):
        _, _, variant = measured[name]
        assert 0.15 <= variant.traffic_rate_factor <= 1.05

    def test_footprint_factor_in_clamp(self, name, measured):
        _, _, variant = measured[name]
        assert 0.10 <= variant.footprint_factor <= 1.10

    def test_deterministic_precise_output(self, name, measured):
        # Bit for bit: a clock read or unseeded draw that perturbs the
        # output but not the work count must fail here, since half the
        # apps have no kernel pin in tests/golden.
        _, precise, _ = measured[name]
        again = make_app(name).precise_run(seed=0)
        if isinstance(precise.output, np.ndarray):
            assert np.array_equal(precise.output, again.output)
        else:
            assert precise.output == again.output
        assert vars(precise.counters) == vars(again.counters)

    def test_seed_changes_dataset(self, name, measured):
        app, precise, _ = measured[name]
        other = make_app(name).precise_run(seed=99)
        # Work may coincide; traffic+work identical for different seeds
        # would suggest the rng is ignored.
        same = precise.counters.work == other.counters.work and (
            precise.counters.mem_traffic == other.counters.mem_traffic
        )
        if same:
            a, b = precise.output, other.output
            if isinstance(a, np.ndarray):
                assert not np.array_equal(a, b)
            else:
                assert a != b

    def test_metadata_sane(self, name, measured):
        app, _, _ = measured[name]
        md = app.metadata
        assert 10.0 <= md.nominal_exec_time <= 120.0
        assert 0.5 <= md.parallel_fraction <= 1.0
        assert 0.0 < md.dynrio_overhead <= MAX_DYNRIO_OVERHEAD
        assert md.profile.membw_per_core > 0
        assert md.profile.llc_footprint_bytes > 0


def test_mean_dynrio_overhead_matches_paper(measured):
    overheads = [app.metadata.dynrio_overhead for app, _, _ in measured.values()]
    assert np.mean(overheads) == pytest.approx(0.038, abs=0.006)
    assert max(overheads) == pytest.approx(0.089, abs=0.001)


def test_all_apps_offer_admissible_variant(measured):
    """Every app must have at least one single-knob variant within the 5%
    budget (otherwise its approximation ladder would be empty)."""
    for name, (app, _, _) in measured.items():
        mildest = []
        for key, knob in app.knobs().items():
            mv = app.measure(VariantSpec({key: knob.candidates[0]}), seed=0)
            mildest.append(mv.inaccuracy_pct)
        assert min(mildest) <= 5.0, f"{name}: no admissible variant"
