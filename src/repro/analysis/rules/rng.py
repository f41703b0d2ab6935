"""Seeded-RNG rule: every random stream must name its seed.

The sweep cache and every cross-backend parity test rest on results
being a pure function of the scenario config; a single unseeded
generator (or any draw from the hidden module-level global state of
:mod:`random` / ``numpy.random``) silently breaks bit-identity in a way
no small test reliably catches.  The sanctioned pattern is
:mod:`repro.rng`: explicit generators, seeds derived from the scenario.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, Rule
from repro.analysis.sources import rng_violation
from repro.analysis.zones import Zone

__all__ = ["SeededRngRule"]


class SeededRngRule(Rule):
    """Explicit seeds only; module-level RNG state is banned outright."""

    id = "seeded-rng"
    zones = frozenset({Zone.DETERMINISTIC, Zone.DISTRIBUTED})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            violation = rng_violation(node, ctx.aliases)
            if violation is not None:
                yield ctx.finding(self.id, node, violation[1])
