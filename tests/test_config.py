"""The paper's platform (Table 1) and run defaults (Section 4.3), read
where each value is declared."""

import inspect

import pytest

from repro import units
from repro.config import PlatformSpec
from repro.core import ColocationConfig, CoreReclaimOnlyPolicy, PliantPolicy
from repro.search.variants import DesignSpaceExplorer
from repro.sweep import Scenario


class TestPlatformSpec:
    def test_table1_core_counts(self):
        spec = PlatformSpec()
        assert spec.sockets == 2
        assert spec.cores_per_socket == 22
        assert spec.total_physical_cores == 44
        assert spec.threads_per_core == 2

    def test_irq_reservation(self):
        spec = PlatformSpec()
        assert spec.irq_cores == 6
        assert spec.usable_cores_per_socket == 16

    def test_llc_size(self):
        spec = PlatformSpec()
        assert spec.llc_bytes == units.mb(55)
        assert spec.llc_ways == 20

    def test_memory(self):
        spec = PlatformSpec()
        assert spec.memory_bytes == units.gb(128)
        assert spec.memory_channels == 8

    def test_frequencies(self):
        spec = PlatformSpec()
        assert spec.base_frequency_ghz == pytest.approx(2.2)
        assert spec.max_turbo_frequency_ghz == pytest.approx(3.6)


class TestSection4Defaults:
    """Each paper default at its live home: the scenario, the engine
    config, the policies and the variant explorer."""

    def test_one_second_decision_interval(self):
        assert Scenario("memcached", "canneal").decision_interval == pytest.approx(1.0)
        assert ColocationConfig().decision_interval == pytest.approx(1.0)

    def test_ten_percent_slack_threshold(self):
        assert Scenario("memcached", "canneal").slack_threshold == pytest.approx(0.10)
        assert PliantPolicy().slack_threshold == pytest.approx(0.10)
        assert CoreReclaimOnlyPolicy().slack_threshold == pytest.approx(0.10)

    def test_five_percent_inaccuracy_cap(self):
        default = inspect.signature(DesignSpaceExplorer).parameters[
            "max_inaccuracy_pct"
        ].default
        assert default == pytest.approx(5.0)

    def test_load_is_75_to_80_pct(self):
        assert 0.75 <= Scenario("memcached", "canneal").load_fraction <= 0.80
        assert 0.75 <= ColocationConfig().load_fraction <= 0.80
