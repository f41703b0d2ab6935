"""Tenant accounting."""

import pytest

from repro.server.resources import ResourceProfile
from repro.server.tenant import Tenant, TenantKind


def make_tenant(cores=8):
    return Tenant("app", TenantKind.APPROXIMATE, ResourceProfile(), cores)


class TestNominalCores:
    def test_defaults_to_initial(self):
        assert make_tenant(6).nominal_cores == 6

    def test_explicit_nominal(self):
        tenant = Tenant("x", TenantKind.APPROXIMATE, ResourceProfile(), 4, nominal_cores=8)
        assert tenant.nominal_cores == 8
        assert tenant.cores == 4


class TestCoreMovement:
    def test_take_and_give(self):
        tenant = make_tenant(8)
        tenant.take_core()
        assert tenant.cores == 7
        assert tenant.nominal_cores == 8
        tenant.give_core()
        assert tenant.cores == 8

    def test_cannot_drop_below_one(self):
        tenant = make_tenant(1)
        with pytest.raises(ValueError):
            tenant.take_core()

    def test_give_beyond_nominal(self):
        tenant = make_tenant(8)
        tenant.give_core()
        assert tenant.cores == 9
        assert tenant.nominal_cores == 8

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            make_tenant(-1)


class TestProfile:
    def test_set_profile(self):
        tenant = make_tenant()
        new = ResourceProfile(llc_intensity=0.9)
        tenant.set_profile(new)
        assert tenant.profile is new

