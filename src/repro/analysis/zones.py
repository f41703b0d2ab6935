"""Enforcement zones: which invariants apply where.

The repo's correctness story is not uniform.  The simulation, search,
and experiment layers promise *bit-reproducible* results — any clock or
unseeded RNG read there is a latent nondeterminism bug.  The distributed
broker/worker layer deliberately reads clocks, but must obey the
lease-clock discipline: lease ages are monotonic dwell, never wall-clock
arithmetic.  Figures, scripts, and benchmarks time things on purpose
and answer to neither contract.

``zone_for`` maps a file path onto one of three zones by longest
directory-fragment match, so a rule can say "I apply in deterministic
code" without every rule re-encoding the package layout.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

__all__ = ["Zone", "ZONE_MAP", "zone_for"]


class Zone(str, Enum):
    """One enforcement regime; every analyzed file belongs to exactly one."""

    #: Results must be bit-identical across backends, hosts, and reruns:
    #: no ambient clocks, no unseeded randomness.
    DETERMINISTIC = "deterministic"
    #: Broker/worker code: clocks are the job, but lease ages must be
    #: monotonic dwell.
    DISTRIBUTED = "distributed"
    #: Presentation, tooling, and benchmarks: timing and I/O at will.
    FREE = "free"


#: Directory fragments → zone, matched longest-fragment-first against the
#: analyzed file's path.  Anything unmatched is FREE — the map names what
#: carries a contract, not everything that exists.
ZONE_MAP: dict[str, Zone] = {
    "repro/sweep/backends": Zone.DISTRIBUTED,
    # The sweep CLI is entry-point tooling: it sleeps in --watch loops and
    # flushes telemetry shards; nothing it computes is a result payload.
    # ``python -m repro.sweep`` is its three-line entry point.
    "repro/sweep/cli.py": Zone.FREE,
    "repro/sweep/__main__.py": Zone.FREE,
    "repro/viz": Zone.FREE,
    # The linter itself walks filesystems and is not part of any result.
    "repro/analysis": Zone.FREE,
    # Telemetry is the side channel: it reads real clocks at shard-write
    # time by design and never feeds values back into results (the
    # telemetry-side-channel rule polices the consumers, not this module).
    "repro/telemetry": Zone.FREE,
    # Everything else under the package computes (or feeds) results that
    # must reproduce bit-identically: search, experiment, core, apps,
    # services, server, cluster, sweep's cache/engine/grid, rng.
    "repro": Zone.DETERMINISTIC,
    "benchmarks": Zone.FREE,
    "examples": Zone.FREE,
    "scripts": Zone.FREE,
    "tests": Zone.FREE,
}

#: Longest fragment first so ``repro/sweep/backends`` beats ``repro``.
_ORDERED = sorted(ZONE_MAP.items(), key=lambda item: -len(item[0]))


def zone_for(path: Path | str) -> Zone:
    """The enforcement zone of one file path.

    Matching is purely on path segments (``repro/sweep/backends`` matches
    wherever that directory chain appears), so the answer is the same for
    absolute paths, repo-relative paths, and copies of the tree.
    """
    joined = "/" + Path(path).as_posix().strip("/") + "/"
    for fragment, zone in _ORDERED:
        if f"/{fragment}/" in joined:
            return zone
    return Zone.FREE
