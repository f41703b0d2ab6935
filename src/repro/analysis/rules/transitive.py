"""Transitive determinism taint: the interprocedural clock/RNG rules.

The per-file ``no-wallclock`` and ``seeded-rng`` rules catch a direct
violation on the line it happens.  What they cannot see is a
deterministic-zone function laundering nondeterminism through helpers:
``repro.core`` calling into a free-zone utility module whose helper's
helper reads ``time.time()``.  These rules flag exactly that — the
finding anchors at the deterministic function that crosses the zone
boundary (where the fix belongs: inject the value, pass the seed) and
renders the full call chain down to the offending source.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.dataflow import ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.rulebase import ProjectRule

__all__ = ["TransitiveRngRule", "TransitiveWallclockRule"]


class _TaintRule(ProjectRule):
    """Shared engine: one subclass per taint flavor filters by rule id."""

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for violation in ctx.taint:
            if violation.rule != self.id:
                continue
            yield Finding(
                rule=self.id,
                path=violation.boundary_path,
                line=violation.boundary_line,
                col=0,
                message=(
                    f"{violation.boundary} is in a deterministic zone but "
                    f"reaches {violation.source.target}() "
                    f"({violation.source.detail}) via: "
                    + " -> ".join(label for label, _, _ in violation.chain)
                ),
                code=violation.boundary_code,
                chain=violation.chain,
            )


class TransitiveWallclockRule(_TaintRule):
    """Deterministic code must not reach a clock through any call chain."""

    id = "transitive-wallclock"


class TransitiveRngRule(_TaintRule):
    """Deterministic code must not reach unseeded randomness either."""

    id = "transitive-rng"

