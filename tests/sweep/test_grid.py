"""Scenario: one colocation experiment as pure data."""

import pytest

from repro.core.runtime import ColocationConfig
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
