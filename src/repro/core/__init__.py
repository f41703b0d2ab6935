"""The Pliant runtime (the paper's contribution).

* :mod:`repro.core.monitor` — client-side latency monitor (Section 4.1)
* :mod:`repro.core.actuator` — variant switching + core reallocation
* :mod:`repro.core.policy` — the Fig. 3 state machine, N apps via an arbiter
* :mod:`repro.core.arbiter` — Section 4.4 round-robin multi-app policy
* :mod:`repro.core.runtime` — the epoch-driven colocation engine
* :mod:`repro.core.baselines` — Precise / ablation policies
"""

from repro.core.actuator import Actuator
from repro.core.arbiter import ImpactAwareArbiter, RoundRobinArbiter
from repro.core.baselines import (
    CoreReclaimOnlyPolicy,
    PrecisePolicy,
    StaticLevelPolicy,
    StaticMostApproxPolicy,
)
from repro.core.monitor import IntervalObservation, PerformanceMonitor
from repro.core.policy import PliantPolicy, RuntimePolicy
from repro.core.runtime import (
    AppOutcome,
    ColocationConfig,
    ColocationEngine,
    ColocationResult,
)

__all__ = [
    "Actuator",
    "AppOutcome",
    "ColocationConfig",
    "ColocationEngine",
    "ColocationResult",
    "CoreReclaimOnlyPolicy",
    "ImpactAwareArbiter",
    "IntervalObservation",
    "PerformanceMonitor",
    "PliantPolicy",
    "PrecisePolicy",
    "RoundRobinArbiter",
    "RuntimePolicy",
    "StaticLevelPolicy",
    "StaticMostApproxPolicy",
]
