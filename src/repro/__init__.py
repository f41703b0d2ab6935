"""repro: a reproduction of Pliant (HPCA 2019).

Pliant is an online cloud runtime that co-locates latency-critical
interactive services with approximate-computing applications, dialing
approximation up (and reclaiming cores when needed) to keep the interactive
service inside its tail-latency QoS while sacrificing the minimum output
quality.

Public API tour
---------------
``repro.apps``         -- 24 approximable application kernels
``repro.services``     -- NGINX / memcached / MongoDB models
``repro.server``       -- shared-server platform + interference model
``repro.search``       -- budgeted design-space search: scenario
                          strategies (grid/random/halving/pareto) plus
                          the paper's Section 3 variant exploration
``repro.core``         -- the Pliant runtime (monitor, actuator, policy)
``repro.cluster``      -- build_engine(scenario), ladders, mix enumeration
``repro.experiment``   -- declarative specs, run_experiment, ResultSet
``repro.analysis``     -- repro-lint: per-file AST checker for the
                          determinism, lease-clock and serialization
                          invariants (zones, a fixed rule set whose
                          free-zone-import rule is the deterministic
                          zone's boundary, inline pragmas as the only
                          waiver; ``python -m repro.analysis``)
"""

__version__ = "1.0.0"

from repro.config import PlatformSpec

__all__ = [
    "PlatformSpec",
    "__version__",
]
