"""Table 1: platform specification.

Prints the simulated platform parameters next to the paper's server and
benchmarks the interference model's hot query (the per-epoch pressure
computation the whole runtime is built on).
"""

from repro import units
from repro.config import PlatformSpec
from repro.server import InterferenceModel, ResourceProfile
from repro.server.interference import contribution
from repro.server.platform import default_platform
from repro.viz import format_table

import pytest

pytestmark = pytest.mark.benchmark


def test_table1_platform(benchmark, capsys):
    spec = PlatformSpec()
    rows = [
        ["Model", spec.model],
        ["Sockets", spec.sockets],
        ["Cores/Socket", spec.cores_per_socket],
        ["Threads/Core", spec.threads_per_core],
        ["Base/Max Turbo Frequency", f"{spec.base_frequency_ghz}GHz / {spec.max_turbo_frequency_ghz}GHz"],
        ["L1 Inst/Data Cache", f"{spec.l1i_kb} / {spec.l1d_kb} KB"],
        ["L2 Cache", f"{spec.l2_kb}KB"],
        ["L3 (Last-Level) Cache", f"{spec.llc_bytes / units.MB:.0f} MB, {spec.llc_ways} ways"],
        ["Memory", f"16GBx{spec.memory_channels}, {spec.memory_speed_mhz}MHz DDR4"],
        ["Disk", spec.disk_desc],
        ["Network Bandwidth", f"{spec.network_bandwidth_bytes / units.GBPS:.0f}Gbps"],
        ["IRQ-reserved cores/socket", spec.irq_cores],
        ["Allocatable cores/socket", spec.usable_cores_per_socket],
    ]

    model = InterferenceModel(default_platform())
    victim = ResourceProfile(llc_footprint_bytes=units.mb(24), llc_intensity=0.9)
    aggressors = [
        contribution(ResourceProfile(llc_footprint_bytes=units.mb(50), llc_intensity=0.8), 8)
    ]

    benchmark(model.pressure_on, victim, 8, aggressors)

    with capsys.disabled():
        print()
        print("=== Table 1: Platform Specification ===")
        print(format_table(["Parameter", "Value"], rows))

    assert spec.total_physical_cores == 44
