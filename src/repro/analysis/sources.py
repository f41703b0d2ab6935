"""The shared vocabulary of nondeterminism sources and registry spellings.

Both the per-file rules (:mod:`repro.analysis.rules`) and the
interprocedural extractor (:mod:`repro.analysis.symbols`) need to answer
the same questions — "is this call a clock read?", "is this an unseeded
RNG draw?", "is this a registry registration?" — so the answers live
here, below both, with no dependency on the rules.  A spelling
added here is picked up by the direct rule *and* the taint analysis in
one edit.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import ImportAliases, canonical

__all__ = [
    "MONOTONIC_CALLS",
    "REGISTRY_CALLS",
    "REGISTRY_DICTS",
    "WALLCLOCK_CALLS",
    "clock_call",
    "rng_violation",
]

#: Wall clocks: readings are comparable across hosts only up to skew.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Monotonic/CPU clocks: skew-free but still nondeterministic inputs.
MONOTONIC_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
    }
)

#: Registration entry points (matched on the last name component, so
#: fixture modules defining their own ``register_policy`` participate),
#: mapped to the registry family they populate.
REGISTRY_CALLS: dict[str, str] = {
    "register_policy": "policy",
    "register_strategy": "strategy",
    "register_platform": "platform",
    "register_metric": "metric",
}

#: Backing-dict spellings: a function that reads one of these dispatches
#: through that registry, so the call graph gives it an edge to every
#: registered target.
REGISTRY_DICTS: dict[str, str] = {
    "POLICY_REGISTRY": "policy",
    "STRATEGIES": "strategy",
    "PLATFORM_REGISTRY": "platform",
    "METRICS": "metric",
}

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


def clock_call(node: ast.Call, aliases: ImportAliases) -> str | None:
    """The canonical clock this call reads, or ``None`` (any flavor)."""
    target = canonical(node.func, aliases)
    if target in WALLCLOCK_CALLS or target in MONOTONIC_CALLS:
        return target
    return None


def rng_violation(node: ast.Call, aliases: ImportAliases) -> tuple[str, str] | None:
    """``(target, why)`` when this call breaks the seeded-RNG contract.

    Three failure shapes, mirroring :class:`~repro.analysis.rules.rng.
    SeededRngRule`: an explicit-stream constructor called without a seed,
    a draw from numpy's hidden module-level generator, and a draw from
    the ``random`` module's global state.
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
                target,
                f"{target}() without an explicit seed: the stream is "
                "OS-entropy-seeded and the result can never be reproduced "
                "— derive the seed from the scenario (see repro.rng)",
            )
        return None
    if target.startswith("numpy.random.") and target not in _NUMPY_ALLOWED:
        return (
            target,
            f"{target}() draws from numpy's hidden module-level generator: "
            "shared mutable state makes results depend on call order across "
            "the whole process — use numpy.random.default_rng(seed)",
        )
    if target.startswith("random.") and target not in _RANDOM_ALLOWED:
        return (
            target,
            f"{target}() draws from the random module's global state: "
            "results depend on every other draw in the process — construct "
            "random.Random(seed) instead",
        )
    return None
