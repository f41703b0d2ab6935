"""Scenario: one colocation experiment as pure data."""

import pytest

from repro.core.runtime import ColocationConfig
from repro.experiment import ExperimentSpec
from repro.sweep import Scenario


class TestScenario:
    def test_single_app_string_normalized(self):
        scenario = Scenario(service="nginx", apps="kmeans")
        assert scenario.apps == ("kmeans",)

    def test_list_mix_normalized_to_tuple(self):
        scenario = Scenario(service="nginx", apps=["kmeans", "canneal"])
        assert scenario.apps == ("kmeans", "canneal")

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            Scenario(service="nginx", apps=())

    def test_config_round_trip(self):
        scenario = Scenario(
            service="nginx",
            apps=("kmeans",),
            load_fraction=0.6,
            decision_interval=2.0,
            monitor_epoch=0.2,
            slack_threshold=0.15,
            horizon=120.0,
            seed=9,
            stop_when_apps_done=False,
        )
        config = scenario.config()
        assert config == ColocationConfig(
            load_fraction=0.6,
            decision_interval=2.0,
            monitor_epoch=0.2,
            horizon=120.0,
            seed=9,
            stop_when_apps_done=False,
        )

    def test_hashable_and_equal_by_value(self):
        a = Scenario(service="nginx", apps=("kmeans",), seed=3)
        b = Scenario(service="nginx", apps=("kmeans",), seed=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_key_payload_covers_every_axis(self):
        base = Scenario(service="nginx", apps=("kmeans",))
        payload = base.key_payload()
        for field in (
            "service",
            "apps",
            "policy",
            "load_fraction",
            "decision_interval",
            "monitor_epoch",
            "slack_threshold",
            "horizon",
            "seed",
            "stop_when_apps_done",
            "exploration_seed",
        ):
            assert field in payload

    def test_label_mentions_coordinates(self):
        scenario = Scenario(
            service="nginx", apps=("kmeans", "snp"), load_fraction=0.5, seed=3
        )
        label = scenario.label()
        assert "nginx" in label and "kmeans+snp" in label and "0.5" in label


class TestLoadgenParamsFailAtDeclaration:
    """Parameters that do not fit the load shape fail where the scenario
    is declared, not in the worker that builds its engine."""

    def test_shape_without_its_parameters(self):
        with pytest.raises(ValueError, match="loadgen_params.*needs a 'low' parameter"):
            Scenario("memcached", "canneal", loadgen_shape="diurnal")

    @pytest.mark.parametrize(
        "shape, params",
        [
            ("diurnal", {"low": 0.3, "high": 0.9}),
            ("bursty", {"base": 0.2, "burst": 0.9, "period": 5.0, "duration": 9.0}),
            ("step", {"steps": 5}),
            ("constant", {"fraction": 0.5, "low": 0.1}),
        ],
    )
    def test_parameters_that_do_not_fit(self, shape, params):
        with pytest.raises(ValueError, match="loadgen_params"):
            Scenario("memcached", "canneal", loadgen_shape=shape, loadgen_params=params)

    def test_fitting_parameters_construct(self):
        scenario = Scenario(
            "memcached",
            "canneal",
            loadgen_shape="diurnal",
            loadgen_params={"low": 0.3, "high": 0.9, "period": 20.0},
        )
        assert dict(scenario.loadgen_params)["period"] == 20.0

    def test_spec_axis_holding_one(self):
        with pytest.raises(ValueError, match="loadgen_params.*needs a 'low' parameter"):
            ExperimentSpec(
                base={"service": "memcached", "apps": "canneal"},
                axes={"loadgen_shape": ("constant", "diurnal")},
            )

    def test_spec_axes_checked_point_by_point(self):
        """Each parameter set must fit every shape it is crossed with."""
        with pytest.raises(ValueError, match="'bursty'"):
            ExperimentSpec(
                base={
                    "service": "memcached",
                    "apps": "canneal",
                    "loadgen_params": {"low": 0.3, "high": 0.9, "period": 20.0},
                },
                axes={"loadgen_shape": ("diurnal", "bursty")},
            )
