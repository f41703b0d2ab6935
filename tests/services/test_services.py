"""The three paper services: QoS targets, saturation points, sensitivity
ordering (Section 5 + calibration targets)."""

import pytest

from repro import units
from repro.services import SERVICE_FACTORIES, make_service
from repro.services.memcached import Memcached
from repro.services.mongodb import MongoDB
from repro.services.nginx import Nginx


class TestFactory:
    def test_all_three_present(self):
        assert set(SERVICE_FACTORIES) == {"nginx", "memcached", "mongodb"}

    @pytest.mark.parametrize("name", ["nginx", "memcached", "mongodb"])
    def test_make_service(self, name):
        assert make_service(name).name == name

    def test_case_insensitive(self):
        assert make_service("NGINX").name == "nginx"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_service("redis")


class TestPaperQos:
    def test_paper_values(self):
        assert Nginx().qos == pytest.approx(units.msec(10))
        assert Memcached().qos == pytest.approx(units.usec(200))
        assert MongoDB().qos == pytest.approx(units.msec(100))

    def test_relative_strictness(self):
        assert Memcached().qos < Nginx().qos < MongoDB().qos


class TestSaturation:
    def test_fig8_derived_saturation(self):
        # Precise-only mode meets QoS until 340K/48% (NGINX), 280K/46%
        # (memcached), 310/77% (MongoDB) => these saturation levels.
        assert Nginx().saturation_qps(8) == pytest.approx(710_000, rel=0.02)
        assert Memcached().saturation_qps(8) == pytest.approx(610_000, rel=0.02)
        assert MongoDB().saturation_qps(8) == pytest.approx(400, rel=0.02)

    def test_mongodb_scales_worst_with_cores(self):
        # I/O-bound: extra cores barely help.
        gains = {
            name: make_service(name).saturation_qps(16)
            / make_service(name).saturation_qps(8)
            for name in ("nginx", "memcached", "mongodb")
        }
        assert gains["mongodb"] < gains["memcached"] <= gains["nginx"]


class TestSensitivityOrdering:
    def test_memcached_least_forgiving_presence(self):
        # memcached almost always needs a core: its floor saturates at the
        # smallest pressures.
        assert Memcached().sensitivity.presence_ref < Nginx().sensitivity.presence_ref

    def test_mongodb_overload_dominated(self):
        mongo = MongoDB().sensitivity
        assert mongo.membw_overload > mongo.llc
        assert mongo.membw_overload > mongo.membw_linear

    def test_memcached_llc_dominated(self):
        mc = Memcached().sensitivity
        assert mc.llc > mc.membw_linear

    def test_all_have_colocation_floor(self):
        for name in ("nginx", "memcached", "mongodb"):
            assert make_service(name).sensitivity.colocation_floor > 0.1


class TestProfiles:
    @pytest.mark.parametrize("name", ["nginx", "memcached", "mongodb"])
    def test_demand_scales_with_load(self, name):
        svc = make_service(name)
        low = svc.profile(0.3 * svc.saturation_qps(8), 8)
        high = svc.profile(0.9 * svc.saturation_qps(8), 8)
        assert high.membw_per_core > low.membw_per_core

    def test_mongodb_uses_disk(self):
        svc = MongoDB()
        assert svc.profile(300, 8).disk_bw > 0

    def test_nginx_uses_network(self):
        svc = Nginx()
        assert svc.profile(500_000, 8).network_bw > 0

    def test_memcached_no_disk(self):
        assert Memcached().profile(400_000, 8).disk_bw == 0.0


class TestIsolationBehavior:
    @pytest.mark.parametrize("name", ["nginx", "memcached", "mongodb"])
    def test_meets_qos_in_isolation_at_nominal_load(self, name):
        svc = make_service(name)
        qps = 0.775 * svc.saturation_qps(8)
        assert svc.p99_at(qps, 8) < svc.qos

    @pytest.mark.parametrize("name", ["nginx", "memcached", "mongodb"])
    def test_violates_at_saturation(self, name):
        svc = make_service(name)
        assert svc.p99_at(0.999 * svc.saturation_qps(8), 8) > svc.qos
