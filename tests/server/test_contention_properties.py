"""Cached tenant contributions and contention plans are never stale (hypothesis).

Every tenant keeps its contribution to the shared resources and refreshes
it whenever its profile or cores change.  After any sequence of those
changes, the node's pressure on each tenant must equal — bit for bit — a
from-scratch computation over the raw profiles and cores.  A contention
plan built after the change and evaluated at any QPS must give the
service the node's pressure and the inflation its sensitivity derives
from it, and each app the execution time its memory-hierarchy terms of
that breakdown imply.

The plan evaluates all of that as inlined arithmetic, so these tests are
what keeps it equal to :meth:`ServerNode.pressure_on` and
:meth:`InterferenceSensitivity.inflation`.  Besides the registered
platforms and the real services they draw platforms with zero or scarce
capacities, sensitivities with and without ``presence_ref`` and CPU
costs per load that clamp the service's CPU share at either end; the
explicit examples reach every branch of the plan's arithmetic on every
run.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import PlatformSpec
from repro.core.runtime import _APP_PRESSURE_SENSITIVITY, ContentionPlan
from repro.server.interference import _OVERLOAD_KNEE, _REFERENCE_CORES
from repro.server.node import ServerNode
from repro.server.platform import Platform, make_platform, registered_platforms
from repro.server.resources import ResourceProfile
from repro.server.tenant import Tenant, TenantKind
from repro.services import make_service
from repro.services.base import InterferenceSensitivity

profiles = st.builds(
    ResourceProfile,
    cpu_fraction=st.floats(min_value=0.0, max_value=1.0),
    llc_footprint_bytes=st.floats(min_value=0.0, max_value=units.mb(120)),
    llc_intensity=st.floats(min_value=0.0, max_value=1.0),
    membw_per_core=st.floats(min_value=0.0, max_value=units.gbytes_per_sec(12.0)),
    disk_bw=st.floats(min_value=0.0, max_value=units.gbytes_per_sec(0.3)),
    network_bw=st.floats(min_value=0.0, max_value=units.gbytes_per_sec(2.0)),
)

steps = st.lists(
    st.tuples(
        st.sampled_from(["set_profile", "give_core", "take_core"]),
        st.integers(min_value=0, max_value=3),
        profiles,
    ),
    max_size=12,
)


def overload(utilization):
    if utilization <= _OVERLOAD_KNEE:
        return 0.0
    return ((utilization - _OVERLOAD_KNEE) / (1.0 - _OVERLOAD_KNEE)) ** 2


def bw_pressure(own_demand, other_demand, capacity):
    if capacity <= 0:
        return 0.0
    own = own_demand / capacity
    total = (own_demand + other_demand) / capacity
    return max(0.0, total - own) + max(0.0, overload(total) - overload(own))


def textbook_pressure(platform, victim, others):
    """The five pressures on ``victim`` from raw ``(profile, cores)`` pairs."""
    others = [(profile, cores) for profile, cores in others if cores > 0]
    demand = 0.0
    membw = disk_bw = network_bw = 0.0
    for profile, cores in others:
        rate_scale = math.sqrt(cores / _REFERENCE_CORES)
        demand += profile.llc_footprint_bytes * profile.llc_intensity * rate_scale
        membw += profile.membw_per_core * cores * profile.cpu_fraction
        disk_bw += profile.disk_bw
        network_bw += profile.network_bw
    pollution = min(1.5, demand / platform.llc_bytes)
    llc = pollution * victim.profile.llc_intensity

    capacity = platform.memory_bandwidth
    own_bw = victim.profile.membw_per_core * victim.cores * victim.profile.cpu_fraction
    total_util = (own_bw + membw) / capacity
    own_util = own_bw / capacity
    return (
        llc,
        max(0.0, total_util - own_util),
        max(0.0, overload(total_util) - overload(own_util)),
        bw_pressure(victim.profile.disk_bw, disk_bw, platform.disk_bandwidth),
        bw_pressure(victim.profile.network_bw, network_bw, platform.network_bandwidth),
    )


def assert_fresh(node):
    tenants = node.tenants
    for victim in tenants:
        pressure = node.pressure_on(victim.name)
        others = [(t.profile, t.cores) for t in tenants if t is not victim]
        expected = textbook_pressure(node.platform, victim, others)
        got = (
            pressure.llc,
            pressure.membw_linear,
            pressure.membw_overload,
            pressure.disk,
            pressure.network,
        )
        assert got == expected, victim.name


@settings(max_examples=60, deadline=None)
@given(
    platform_name=st.sampled_from(registered_platforms()),
    initial=st.lists(st.tuples(profiles, st.integers(0, 4)), min_size=2, max_size=4),
    changes=steps,
)
def test_pressure_matches_textbook_after_every_change(platform_name, initial, changes):
    node = ServerNode(make_platform(platform_name))
    for index, (profile, cores) in enumerate(initial):
        kind = TenantKind.INTERACTIVE if index == 0 else TenantKind.APPROXIMATE
        node.add_tenant(Tenant(f"t{index}", kind, profile, cores))
    assert_fresh(node)

    tenants = node.tenants
    for action, index, profile in changes:
        tenant = tenants[index % len(tenants)]
        if action == "set_profile":
            tenant.set_profile(profile)
        elif action == "give_core":
            tenant.give_core()
        elif tenant.cores > 1:
            tenant.take_core()
        assert_fresh(node)


def fake_sim(tenant, finished, parallel_fraction, nominal_exec_time, time_factor):
    """The parts of an ``AppSim`` a contention plan reads."""
    p = parallel_fraction
    return SimpleNamespace(
        tenant=tenant,
        finished=finished,
        app=SimpleNamespace(
            metadata=SimpleNamespace(
                parallel_fraction=p, nominal_exec_time=nominal_exec_time
            )
        ),
        amdahl_nominal=(1.0 - p) + p / max(tenant.nominal_cores, 1),
        level=0,
        level_time_factors=(time_factor,),
        instrumentation_factor=1.0 + p / 10,
        exec_time=0.0,
    )


def assert_plan_fresh(node, service, sims, build_qps, qps):
    """A plan built at ``build_qps`` and evaluated at ``qps`` matches the node."""
    service_tenant = node.interactive
    cores = service_tenant.cores
    service_tenant.set_profile(service.profile(build_qps, cores))
    plan = ContentionPlan(node.platform, service, service_tenant, sims)
    inflation = plan.evaluate(qps)
    pressure = plan.pressure(qps)

    service_tenant.set_profile(service.profile(qps, cores))
    assert plan.saturation_qps == service.saturation_qps(cores)
    assert pressure == node.pressure_on(service.name)
    assert inflation == service.sensitivity.inflation(pressure)
    for sim in sims:
        if sim.finished:
            continue
        tenant = sim.tenant
        app = node.pressure_on(tenant.name)
        metadata = sim.app.metadata
        p = metadata.parallel_fraction
        amdahl_now = (1.0 - p) + p / max(tenant.cores, 1)
        expected = metadata.nominal_exec_time * amdahl_now / sim.amdahl_nominal
        expected *= sim.level_time_factors[0]
        expected *= sim.instrumentation_factor
        # Batch apps feel half the LLC term and both memory-bandwidth terms.
        expected *= 1.0 + _APP_PRESSURE_SENSITIVITY * (
            0.5 * app.llc + app.membw_linear + app.membw_overload
        )
        assert sim.exec_time == expected, tenant.name


apps_on_node = st.lists(
    st.tuples(
        profiles,
        st.integers(1, 4),
        st.booleans(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=2.0),
    ),
    min_size=1,
    max_size=3,
)


def capacity_platform(llc, memory, disk, network):
    """The paper's server with the given shared capacities."""
    return Platform(
        replace(
            PlatformSpec(),
            llc_bytes=llc,
            memory_bandwidth_bytes=memory,
            disk_bandwidth_bytes=disk,
            network_bandwidth_bytes=network,
        )
    )


def capacities(scarce, ample):
    """A shared capacity: missing (0), or between ``scarce``, which the
    tenants push far past the overload knee, and ``ample``."""
    return st.one_of(st.just(0.0), st.floats(min_value=scarce, max_value=ample))


platforms = st.one_of(
    st.sampled_from(registered_platforms()).map(make_platform),
    st.builds(
        capacity_platform,
        capacities(units.mb(1), units.mb(120)),
        capacities(units.gbytes_per_sec(0.5), units.gbytes_per_sec(100.0)),
        capacities(units.mb(1), units.gbytes_per_sec(1.0)),
        capacities(units.mb(1), units.gbytes_per_sec(20.0)),
    ),
)

coefficients = st.floats(min_value=0.0, max_value=2.0)
sensitivities = st.builds(
    InterferenceSensitivity,
    llc=coefficients,
    membw_linear=coefficients,
    membw_overload=coefficients,
    disk=coefficients,
    network=coefficients,
    colocation_floor=coefficients,
    presence_ref=st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=0.5)),
    max_inflation=st.floats(min_value=1.0, max_value=3.0),
)

#: Three running apps for the examples, with demands uneven enough that
#: reordering the service's weighted pressure or an app's bandwidth sum
#: changes their bits in the last example but one.
BUSY_APPS = [
    (
        ResourceProfile(0.73, units.mb(37), 0.61, units.gbytes_per_sec(3.766),
                        units.mb(31), units.mb(170)),
        2, False, 0.9, 50.0, 1.0,
    ),
    (
        ResourceProfile(0.41, units.mb(13), 0.93, units.gbytes_per_sec(7.706),
                        units.mb(7), units.mb(290)),
        3, False, 0.5, 20.0, 0.7,
    ),
    (
        ResourceProfile(0.97, units.mb(71), 0.27, units.gbytes_per_sec(5.75),
                        units.mb(19), units.mb(53)),
        1, False, 0.8, 10.0, 1.3,
    ),
]


def uneven_sensitivity(presence_ref, max_inflation):
    """A sensitivity to every resource, with uneven coefficients."""
    return InterferenceSensitivity(
        llc=0.21,
        membw_linear=0.33,
        membw_overload=0.057,
        disk=0.13,
        network=0.47,
        colocation_floor=0.19,
        presence_ref=presence_ref,
        max_inflation=max_inflation,
    )


@settings(max_examples=60, deadline=None)
@given(
    platform=platforms,
    service_name=st.sampled_from(["nginx", "memcached", "mongodb"]),
    sensitivity=st.one_of(st.none(), sensitivities),
    cpu_per_load=st.one_of(st.none(), st.floats(min_value=0.0, max_value=3.0)),
    service_cores=st.integers(1, 8),
    apps=apps_on_node,
    loads=st.lists(st.floats(min_value=0.0, max_value=1.3), min_size=2, max_size=2),
    changes=steps,
)
# No LLC and no memory, disk or network capacity; no presence_ref.
@example(
    platform=capacity_platform(0.0, 0.0, 0.0, 0.0),
    service_name="mongodb",
    sensitivity=uneven_sensitivity(presence_ref=0.0, max_inflation=1.5),
    cpu_per_load=0.0,
    service_cores=4,
    apps=BUSY_APPS,
    loads=[0.5, 0.8],
    changes=[],
)
# Scarce capacities: the service alone passes the memory and network
# knees, and with the apps every resource does; the CPU share and the
# presence term are capped at 1.0.
@example(
    platform=capacity_platform(
        units.mb(8), units.gbytes_per_sec(4.0), units.mb(50), units.gbytes_per_sec(1.5)
    ),
    service_name="nginx",
    sensitivity=uneven_sensitivity(presence_ref=0.137, max_inflation=1e6),
    cpu_per_load=3.0,
    service_cores=8,
    apps=BUSY_APPS,
    loads=[0.7, 1.2],
    changes=[],
)
# Every pressure term non-zero and nothing capped: the service alone
# passes the disk knee.
@example(
    platform=capacity_platform(
        units.mb(55), units.gbytes_per_sec(33.8), units.mb(150), units.gbytes_per_sec(1.0)
    ),
    service_name="mongodb",
    sensitivity=uneven_sensitivity(presence_ref=50.0, max_inflation=1e6),
    cpu_per_load=None,
    service_cores=6,
    apps=BUSY_APPS,
    loads=[0.3, 1.19],
    changes=[],
)
# A real service on the paper's server, its inflation at its ceiling and
# its CPU share floored at 0.1.
@example(
    platform=make_platform("default"),
    service_name="memcached",
    sensitivity=None,
    cpu_per_load=0.05,
    service_cores=6,
    apps=BUSY_APPS,
    loads=[0.5, 1.2],
    changes=[],
)
def test_plan_matches_pressure_on_after_every_change(
    platform, service_name, sensitivity, cpu_per_load, service_cores, apps, loads, changes
):
    # Up to 8 + 3 x 4 cores can exceed the platform; the node refuses those.
    assume(service_cores + sum(app[1] for app in apps) <= platform.allocatable_cores)
    service = make_service(service_name)
    if sensitivity is not None:
        service.sensitivity = sensitivity
    if cpu_per_load is not None:
        service.cpu_per_load = cpu_per_load
    build_qps, qps = (load * service.saturation_qps(service_cores) for load in loads)
    node = ServerNode(platform)
    node.add_tenant(
        Tenant(
            service.name,
            TenantKind.INTERACTIVE,
            service.profile(build_qps, service_cores),
            service_cores,
        )
    )
    sims = []
    for index, (profile, cores, finished, p, nominal, factor) in enumerate(apps):
        idle = ResourceProfile(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        tenant = Tenant(
            f"app{index}", TenantKind.APPROXIMATE, idle if finished else profile, cores
        )
        node.add_tenant(tenant)
        sims.append(fake_sim(tenant, finished, p, nominal, factor))
    assert_plan_fresh(node, service, sims, build_qps, qps)

    tenants = node.tenants
    for action, index, profile in changes:
        tenant = tenants[index % len(tenants)]
        sim = next((sim for sim in sims if sim.tenant is tenant), None)
        if action == "set_profile":
            if sim is not None and not sim.finished:
                tenant.set_profile(profile)
        elif action == "give_core":
            tenant.give_core()
        elif tenant.cores > 1:
            tenant.take_core()
        assert_plan_fresh(node, service, sims, build_qps, qps)
