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

from repro.analysis.astutil import ImportAliases, canonical
from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, Rule
from repro.analysis.zones import Zone

__all__ = ["SeededRngRule"]

#: Constructors that are fine *if* they take an explicit seed argument.
_SEEDED_CONSTRUCTORS = frozenset({"numpy.random.default_rng", "random.Random"})

#: Seed parameter names accepted by the constructors above.
_SEED_KWARGS = frozenset({"seed", "x"})

#: ``numpy.random`` attributes that do not touch the legacy global state.
_NUMPY_ALLOWED = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }
)

#: ``random`` module attributes that construct independent streams rather
#: than drawing from the module-level global generator.
_RANDOM_ALLOWED = frozenset({"random.Random", "random.SystemRandom"})


def rng_violation(node: ast.Call, aliases: ImportAliases) -> str | None:
    """Why this call breaks the seeded-RNG contract, or ``None``.

    Three failure shapes: an explicit-stream constructor called without
    a seed, a draw from numpy's hidden module-level generator, and a
    draw from the ``random`` module's global state.
    """
    target = canonical(node.func, aliases)
    if target is None:
        return None
    if target in _SEEDED_CONSTRUCTORS:
        seeded = bool(node.args) or any(
            kw.arg in _SEED_KWARGS for kw in node.keywords
        )
        if not seeded:
            return (
                f"{target}() without an explicit seed: the stream is "
                "OS-entropy-seeded and the result can never be reproduced "
                "— derive the seed from the scenario (see repro.rng)"
            )
        return None
    if target.startswith("numpy.random.") and target not in _NUMPY_ALLOWED:
        return (
            f"{target}() draws from numpy's hidden module-level generator: "
            "shared mutable state makes results depend on call order across "
            "the whole process — use numpy.random.default_rng(seed)"
        )
    if target.startswith("random.") and target not in _RANDOM_ALLOWED:
        return (
            f"{target}() draws from the random module's global state: "
            "results depend on every other draw in the process — construct "
            "random.Random(seed) instead"
        )
    return None


class SeededRngRule(Rule):
    """Explicit seeds only; module-level RNG state is banned outright."""

    id = "seeded-rng"
    zones = frozenset({Zone.DETERMINISTIC, Zone.DISTRIBUTED})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            why = rng_violation(node, ctx.aliases)
            if why is not None:
                yield ctx.finding(self.id, node, why)
