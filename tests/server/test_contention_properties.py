"""Cached tenant contributions and contention plans are never stale (hypothesis).

Every tenant keeps its contribution to the shared resources and refreshes
it whenever its profile or cores change.  After any sequence of those
changes, the node's pressure on each tenant must equal — bit for bit — a
from-scratch computation over the raw profiles and cores.  A contention
plan built after the change and evaluated at any QPS must give the
service the node's pressure, and each app the execution time its
memory-hierarchy terms of that breakdown imply.
"""

import math
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.runtime import _APP_PRESSURE_SENSITIVITY, ContentionPlan
from repro.server.interference import _OVERLOAD_KNEE, _REFERENCE_CORES
from repro.server.node import ServerNode
from repro.server.platform import make_platform, registered_platforms
from repro.server.resources import ResourceProfile
from repro.server.tenant import Tenant, TenantKind
from repro.services import make_service

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
    pressure, inflation = plan.evaluate(qps)

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


@settings(max_examples=60, deadline=None)
@given(
    platform_name=st.sampled_from(registered_platforms()),
    service_name=st.sampled_from(["nginx", "memcached", "mongodb"]),
    service_cores=st.integers(1, 8),
    apps=apps_on_node,
    loads=st.lists(st.floats(min_value=0.0, max_value=1.3), min_size=2, max_size=2),
    changes=steps,
)
def test_plan_matches_pressure_on_after_every_change(
    platform_name, service_name, service_cores, apps, loads, changes
):
    platform = make_platform(platform_name)
    # Up to 8 + 3 x 4 cores can exceed the platform; the node refuses those.
    assume(service_cores + sum(app[1] for app in apps) <= platform.allocatable_cores)
    service = make_service(service_name)
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
