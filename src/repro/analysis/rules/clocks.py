"""Clock rules: determinism and lease-clock discipline.

Two invariants, one failure family — reading the wrong clock:

* In the **deterministic** zone any ambient clock read is a bug: results
  must be a pure function of the scenario config, and a value that
  depends on when the run happened can never be bit-reproduced or
  cache-keyed.  ``time.monotonic``/``perf_counter`` are banned alongside
  ``time.time`` — a monotonic read is just as nondeterministic, it only
  skews less.

* In the **distributed** zone clocks are the job, but PR 6's clock-skew
  bug class must stay dead: lease and heartbeat ages are *monotonic
  dwell observed locally*, never wall-clock arithmetic, and never any
  arithmetic mixing a clock with another host's file mtime.  Comparing
  an mtime for *equality* (the dwell pattern: "has it changed since I
  last looked?") is the one sanctioned use.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import canonical
from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, Rule
from repro.analysis.sources import MONOTONIC_CALLS, WALLCLOCK_CALLS
from repro.analysis.zones import Zone

__all__ = [
    "LeaseClockRule",
    "MONOTONIC_CALLS",
    "NoWallclockRule",
    "WALLCLOCK_CALLS",
]

#: Spellings that mean "another participant's file timestamp".
_MTIME_NAMES = frozenset({"mtime", "mtime_ns", "st_mtime", "st_mtime_ns"})


class NoWallclockRule(Rule):
    """Ban every ambient clock read where results must be reproducible."""

    id = "no-wallclock"
    zones = frozenset({Zone.DETERMINISTIC})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = canonical(node.func, ctx.aliases)
            if target in WALLCLOCK_CALLS or target in MONOTONIC_CALLS:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{target}() in a deterministic zone: results must be "
                    "bit-reproducible, so timing must come from the scenario "
                    "config or an injected clock, never the process clock",
                )


def _mentions_mtime(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _MTIME_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _MTIME_NAMES:
            return True
    return False


class LeaseClockRule(Rule):
    """Pin the PR 6 fix: lease ages are monotonic dwell, never wall math."""

    id = "lease-clock"
    zones = frozenset({Zone.DISTRIBUTED})

    _ORDERED_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                target = canonical(node.func, ctx.aliases)
                if target in WALLCLOCK_CALLS:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{target}() in broker/lease code: liveness must be "
                        "judged as monotonic dwell on the local clock — "
                        "wall-clock readings from different hosts differ by "
                        "their skew",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                if _mentions_mtime(node.left) != _mentions_mtime(node.right):
                    yield ctx.finding(
                        self.id,
                        node,
                        "subtraction mixing a file mtime with another clock: "
                        "an mtime was written by another host's wall clock, "
                        "so this difference is off by their skew — track "
                        "monotonic dwell since the mtime last *changed* "
                        "(equality checks) instead",
                    )
            elif isinstance(node, ast.Compare):
                left = node.left
                for op, right in zip(node.ops, node.comparators):
                    if isinstance(op, self._ORDERED_OPS) and (
                        _mentions_mtime(left) != _mentions_mtime(right)
                    ):
                        yield ctx.finding(
                            self.id,
                            node,
                            "ordering comparison between a file mtime and "
                            "another clock: cross-host timestamp ordering is "
                            "falsified by clock skew — only equality ('did "
                            "the mtime change?') is skew-safe",
                        )
                    left = right
