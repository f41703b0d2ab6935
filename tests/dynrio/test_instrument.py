"""Fat binary + instrumentor: the drwrap_replace analog."""

import pytest

from repro.apps import ALL_APP_NAMES, make_app
from repro.dynrio.binary import FatBinary
from repro.dynrio.instrument import Instrumentor
from repro.dynrio.overhead import OverheadModel
from repro.dynrio.signals import SIGNAL_BASE, SignalBus
from repro.search.ladder import ApproxLadder


@pytest.fixture()
def setup(ladder_cache, raytrace_app):
    ladder = ladder_cache("raytrace")
    binary = FatBinary(raytrace_app, ladder)
    bus = SignalBus()
    instrumentor = Instrumentor(binary, bus)
    return binary, bus, instrumentor


class TestFatBinary:
    def test_level_count(self, setup):
        binary, _, _ = setup
        assert binary.level_count == binary.ladder.max_level + 1

    def test_level_zero_settings_precise(self, setup, raytrace_app):
        binary, _, _ = setup
        settings = binary.settings_for(0)
        knobs = raytrace_app.knobs()
        assert all(settings[k] == knobs[k].precise_value for k in knobs)

    def test_mismatched_ladder_rejected(self, ladder_cache, kmeans_app):
        with pytest.raises(ValueError):
            FatBinary(kmeans_app, ladder_cache("raytrace"))

    def test_describe(self, setup):
        binary, _, _ = setup
        text = binary.describe()
        assert "precise" in text
        assert "approx v1" in text

    @pytest.mark.parametrize("name", ALL_APP_NAMES)
    def test_every_ladder_settings_and_description(self, name, ladder_cache):
        app, ladder = make_app(name), ladder_cache(name)
        binary = FatBinary(app, ladder)
        assert binary.level_count == ladder.max_level + 1
        lines = [f"fat binary for {name}:"]
        for level, variant in enumerate(ladder.levels):
            assert binary.settings_for(level) == app.materialize(variant.spec)
            tag = "precise" if level == 0 else f"approx v{level}"
            lines.append(
                f"  level {level} ({tag}): inaccuracy={variant.inaccuracy_pct:.2f}% "
                f"time={variant.time_factor:.2f}x"
            )
        assert binary.describe() == "\n".join(lines)

    def test_settings_are_a_copy(self, setup):
        binary, _, _ = setup
        binary.settings_for(1).clear()
        assert binary.settings_for(1)

    def test_keeps_the_ladder_it_was_built_from(self, ladder_cache, raytrace_app):
        ladder = ladder_cache("raytrace")
        copy = ApproxLadder(ladder.app_name, list(ladder.levels))
        binary = FatBinary(raytrace_app, copy)
        top = copy.levels.pop()
        assert binary.level_count == ladder.max_level + 1
        assert binary.settings_for(ladder.max_level) == raytrace_app.materialize(top.spec)


class TestInstrumentor:
    def test_starts_precise(self, setup):
        _, _, instrumentor = setup
        assert instrumentor.active_level == 0
        assert instrumentor.switches == 0

    def test_signal_switches_level(self, setup):
        _, bus, instrumentor = setup
        bus.send(instrumentor.process, SIGNAL_BASE + 1)
        assert instrumentor.active_level == 1
        assert instrumentor.switches == 1

    def test_request_level_round_trip(self, setup):
        _, _, instrumentor = setup
        instrumentor.request_level(1)
        assert instrumentor.active_level == 1
        instrumentor.request_level(0)
        assert instrumentor.active_level == 0
        assert instrumentor.switches == 2

    def test_same_level_not_a_switch(self, setup):
        _, _, instrumentor = setup
        instrumentor.request_level(0)
        assert instrumentor.switches == 0

    def test_level_log(self, setup):
        _, _, instrumentor = setup
        instrumentor.request_level(1)
        instrumentor.request_level(0)
        assert instrumentor.level_log == [0, 1, 0]

    def test_out_of_range_level(self, setup):
        _, _, instrumentor = setup
        with pytest.raises(IndexError):
            instrumentor.request_level(99)

    def test_run_active_level_executes_kernel(self, setup):
        _, _, instrumentor = setup
        precise_run = instrumentor.run_active_level(seed=0)
        instrumentor.request_level(instrumentor._binary.level_count - 1)
        approx_run = instrumentor.run_active_level(seed=0)
        assert approx_run.counters.work < precise_run.counters.work


class TestOverheadModel:
    def test_instrumentation_factor(self, raytrace_app):
        model = OverheadModel()
        factor = model.instrumentation_factor(raytrace_app.metadata)
        assert factor == pytest.approx(1.0 + raytrace_app.metadata.dynrio_overhead)

    def test_switch_pause_scales(self):
        model = OverheadModel(switch_pause=0.02)
        assert model.switch_pause(3) == pytest.approx(0.06)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            OverheadModel(switch_pause=-1.0)
        with pytest.raises(ValueError):
            OverheadModel().switch_pause(-1)

    def test_paper_overhead_band(self):
        from repro.apps import ALL_APP_NAMES

        model = OverheadModel()
        factors = [
            model.instrumentation_factor(make_app(n).metadata) for n in ALL_APP_NAMES
        ]
        assert max(factors) <= 1.089 + 1e-9
        assert min(factors) > 1.0
