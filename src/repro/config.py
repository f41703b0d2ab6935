"""The experimental platform (paper Table 1).

The platform numbers mirror the paper's dual-socket Intel Xeon E5-2699 v4
server.  As in the paper's methodology (Section 5), experiments use a single
socket: 22 physical cores, of which 6 are reserved for network interrupts and
the remaining 16 are shared fairly among the co-scheduled tenants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units


@dataclass(frozen=True)
class PlatformSpec:
    """Hardware parameters of the simulated server (paper Table 1)."""

    model: str = "Intel Xeon E5-2699 v4 (simulated)"
    sockets: int = 2
    cores_per_socket: int = 22
    threads_per_core: int = 2
    base_frequency_ghz: float = 2.2
    max_turbo_frequency_ghz: float = 3.6
    l1i_kb: int = 32
    l1d_kb: int = 32
    l2_kb: int = 256
    llc_bytes: float = units.mb(55)
    llc_ways: int = 20
    memory_bytes: float = units.gb(128)
    memory_channels: int = 8
    memory_speed_mhz: int = 2400
    # 8 channels x 2400 MT/s x 8 B = 153.6 GB/s across both sockets;
    # one socket sees half of that.
    memory_bandwidth_bytes: float = units.gbytes_per_sec(76.8)
    disk_desc: str = "1TB 7200RPM HDD"
    disk_bandwidth_bytes: float = units.gbytes_per_sec(0.16)
    network_bandwidth_bytes: float = units.gbps(10)
    irq_cores: int = 6

    @property
    def total_physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def usable_cores_per_socket(self) -> int:
        """Cores available to tenants on one socket after irq reservation."""
        return self.cores_per_socket - self.irq_cores
