"""ServerNode: allocation bookkeeping for one shared server.

A node holds one interactive tenant plus one or more approximate tenants,
tracks core assignments (always disjoint, always summing to at most the
platform's allocatable cores) and answers interference queries through the
:class:`~repro.server.interference.InterferenceModel`.
"""

from __future__ import annotations

from repro.server.interference import InterferenceModel, PressureBreakdown
from repro.server.platform import Platform, default_platform
from repro.server.tenant import Tenant, TenantKind


class ServerNode:
    """One physical server hosting a colocation."""

    def __init__(self, platform: Platform | None = None) -> None:
        self._platform = platform or default_platform()
        self._interference = InterferenceModel(self._platform)
        self._tenants: list[Tenant] = []

    @property
    def platform(self) -> Platform:
        return self._platform

    @property
    def tenants(self) -> list[Tenant]:
        return list(self._tenants)

    @property
    def interactive(self) -> Tenant:
        for tenant in self._tenants:
            if tenant.kind is TenantKind.INTERACTIVE:
                return tenant
        raise LookupError("node has no interactive tenant")

    @property
    def approximate_tenants(self) -> list[Tenant]:
        return [t for t in self._tenants if t.kind is TenantKind.APPROXIMATE]

    def add_tenant(self, tenant: Tenant) -> None:
        if any(t.name == tenant.name for t in self._tenants):
            raise ValueError(f"duplicate tenant name {tenant.name!r}")
        if tenant.kind is TenantKind.INTERACTIVE and any(
            t.kind is TenantKind.INTERACTIVE for t in self._tenants
        ):
            raise ValueError("node already has an interactive tenant")
        if self.allocated_cores + tenant.cores > self._platform.allocatable_cores:
            raise ValueError(
                f"allocating {tenant.cores} cores exceeds platform capacity "
                f"({self.allocated_cores} already allocated, "
                f"{self._platform.allocatable_cores} total)"
            )
        self._tenants.append(tenant)

    @property
    def allocated_cores(self) -> int:
        return sum(t.cores for t in self._tenants)

    def tenant(self, name: str) -> Tenant:
        for candidate in self._tenants:
            if candidate.name == name:
                return candidate
        raise LookupError(f"no tenant named {name!r}")

    # -- core movement -------------------------------------------------------

    def reclaim_core(self, source: str, destination: str) -> None:
        """Move one core from tenant ``source`` to tenant ``destination``."""
        src = self.tenant(source)
        dst = self.tenant(destination)
        src.take_core()
        dst.give_core()

    # -- interference queries ------------------------------------------------

    def pressure_on(self, name: str) -> PressureBreakdown:
        """Contention pressure the other tenants exert on tenant ``name``."""
        victim = self.tenant(name)
        return self._interference.pressure_on(
            victim.profile,
            victim.cores,
            [t.contribution for t in self._tenants if t is not victim],
        )

    def fair_allocation(self, approx_apps: int) -> list[int]:
        """Fair core split for 1 interactive + ``approx_apps`` tenants."""
        return self._platform.fair_share(1 + approx_apps)
