"""Tenants: the container-like unit of colocation.

Mirrors the paper's setup: the interactive service and the approximate
applications run in separate containers pinned to disjoint physical cores of
the same socket.  A tenant's core allocation changes at runtime when Pliant
reclaims or returns cores; the resource profile changes when the active
approximate variant changes.  Each tenant keeps its contention
:attr:`~Tenant.contribution` current through those changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.server.interference import Contribution, contribution
from repro.server.resources import ResourceProfile


class TenantKind(enum.Enum):
    """Role of a tenant on the shared node."""

    INTERACTIVE = "interactive"
    APPROXIMATE = "approximate"


@dataclass
class Tenant:
    """A pinned workload sharing the node.

    ``cores`` is the current allocation; ``nominal_cores`` records the fair
    share assigned at startup so reclamation can be expressed relative to it.
    """

    name: str
    kind: TenantKind
    profile: ResourceProfile
    cores: int
    nominal_cores: int = field(default=0)
    #: What the tenant puts on the shared resources; refreshed by every
    #: method below that changes ``profile`` or ``cores``.
    contribution: Contribution = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cores < 0:
            raise ValueError("cores must be non-negative")
        if self.nominal_cores == 0:
            self.nominal_cores = self.cores
        self.contribution = contribution(self.profile, self.cores)

    def give_core(self) -> None:
        self.cores += 1
        self.contribution = contribution(self.profile, self.cores)

    def take_core(self) -> None:
        if self.cores <= 1:
            raise ValueError(f"tenant {self.name!r} cannot drop below 1 core")
        self.cores -= 1
        self.contribution = contribution(self.profile, self.cores)

    def set_profile(self, profile: ResourceProfile) -> None:
        self.profile = profile
        self.contribution = contribution(profile, self.cores)
