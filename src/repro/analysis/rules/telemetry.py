"""The telemetry side-channel rule.

Telemetry's hard contract is one-way flow: instrumented code may *hand*
values to a recorder (spans, counters, gauges, events) but nothing it
computes may *depend* on what the recorder holds — otherwise results
with telemetry on and off would diverge, and the bit-reproducibility
story collapses.  This rule polices the consumer side in the
deterministic and distributed zones:

* the read API (``snapshot``/``to_payload`` on a recorder, and the
  module-level ``summary``/``merge_shards``/``read_shards``/
  ``chrome_trace`` collectors) is banned outright — reports belong in
  free-zone tooling;
* values obtained from a recorder's injected clock (``rec.now()``) are
  tracked through local assignments and arithmetic: they may only flow
  *back into* recorder write calls (the ``t0 = rec.now(); ...;
  rec.observe(n, rec.now() - t0)`` phase-timing idiom).  Returning one,
  storing one into object state, branching on one, or passing one to any
  non-recorder call is a side-channel leak and gets flagged.

``rec.enabled`` guards are sanctioned: a boolean "is telemetry on?"
check changes only whether telemetry is *recorded*, never what a result
contains — that is exactly the parity the tests assert.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import canonical
from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, Rule
from repro.analysis.zones import Zone

__all__ = ["TelemetrySideChannelRule"]

#: Factory spellings whose return value is a recorder.
_FACTORY_TAILS = frozenset({"get_recorder", "recorder_from_env"})

#: Recorder constructors (canonical tail).
_CONSTRUCTOR_TAILS = frozenset({"Recorder", "NullRecorder"})

#: Recorder methods that *emit* telemetry state — banned on instrumented
#: receivers.  ``enabled``/``process``/``pid`` attribute reads are fine.
_READ_METHODS = frozenset({"snapshot", "to_payload"})

#: Module-level collectors (matched as ``...telemetry[.submodule].<name>``).
_READ_FUNCS = frozenset(
    {
        "summary",
        "merge_shards",
        "merge_snapshots",
        "read_shards",
        "read_shard",
        "chrome_trace",
        "write_chrome_trace",
    }
)

#: Recorder write API: calls on a recorder receiver whose arguments may
#: freely include clock-tainted values (that is what they are *for*).
_WRITE_METHODS = frozenset(
    {"span", "count", "gauge", "observe", "event", "complete", "now", "flush"}
)

#: Pure numeric builtins a tainted value may pass through on its way
#: back into a recorder call.
_NUMERIC_BUILTINS = frozenset({"float", "int", "abs", "min", "max", "round"})

#: Attribute-name fragments that mark an object as "the recorder" even
#: when it arrived via attribute access (``self._telemetry``) rather
#: than a tracked assignment.
_RECORDERISH = ("telemetry", "recorder")


def _tail(name: str | None) -> str | None:
    return None if name is None else name.rsplit(".", 1)[-1]


def _is_telemetry_module_func(canon: str | None) -> bool:
    if canon is None:
        return False
    head, _, tail = canon.rpartition(".")
    if tail not in _READ_FUNCS:
        return False
    return head.endswith("telemetry") or ".telemetry." in f"{head}."


class _Scope:
    """One analysis scope: a function body or the module toplevel."""

    def __init__(self, statements: list[ast.stmt]) -> None:
        self.statements = statements


def _own_statements(body: list[ast.stmt]) -> list[ast.stmt]:
    """Every statement lexically in this scope, nested defs excluded."""
    out: list[ast.stmt] = []
    for stmt in body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        out.append(stmt)
        for field in ("body", "orelse", "finalbody"):
            out.extend(_own_statements(getattr(stmt, field, None) or []))
        for handler in getattr(stmt, "handlers", None) or []:
            out.extend(_own_statements(handler.body))
    return out


class TelemetrySideChannelRule(Rule):
    """No value read from the Recorder may flow into result payloads."""

    id = "telemetry-side-channel"
    zones = frozenset({Zone.DETERMINISTIC, Zone.DISTRIBUTED})

    # -- recorder identification ----------------------------------------

    def _recorder_names(self, ctx: FileContext, scope: _Scope) -> set[str]:
        names: set[str] = set()
        for stmt in scope.statements:
            if not isinstance(stmt, ast.Assign):
                continue
            if not self._is_recorder_source(ctx, stmt.value, names):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _is_recorder_source(
        self, ctx: FileContext, node: ast.expr, names: set[str]
    ) -> bool:
        if isinstance(node, ast.Call):
            canon = canonical(node.func, ctx.aliases)
            tail = _tail(canon)
            return tail in _FACTORY_TAILS or tail in _CONSTRUCTOR_TAILS
        return self._is_recorder_expr(ctx, node, names)

    def _is_recorder_expr(
        self, ctx: FileContext, node: ast.expr, names: set[str]
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Call):
            tail = _tail(canonical(node.func, ctx.aliases))
            return tail in _FACTORY_TAILS or tail in _CONSTRUCTOR_TAILS
        if isinstance(node, ast.Attribute):
            lowered = node.attr.lower()
            return any(part in lowered for part in _RECORDERISH)
        return False

    # -- clock taint ------------------------------------------------------

    def _is_now_call(
        self, ctx: FileContext, node: ast.expr, names: set[str]
    ) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "now"
            and self._is_recorder_expr(ctx, node.func.value, names)
        )

    def _contains_taint(
        self,
        ctx: FileContext,
        node: ast.expr,
        tainted: set[str],
        names: set[str],
    ) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return True
            if self._is_now_call(ctx, sub, names):
                return True
        return False

    def _compute_taint(
        self, ctx: FileContext, scope: _Scope, names: set[str]
    ) -> set[str]:
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for stmt in scope.statements:
                value = getattr(stmt, "value", None)
                if value is None or not isinstance(
                    stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)
                ):
                    continue
                if not self._contains_taint(ctx, value, tainted, names):
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
        return tainted

    # -- the check --------------------------------------------------------

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes = [_Scope(_own_statements(ctx.tree.body))]
        module_names = self._recorder_names(ctx, scopes[0])
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(_Scope(_own_statements(node.body)))
        for scope in scopes:
            yield from self._check_scope(ctx, scope, module_names)

    def _check_scope(
        self, ctx: FileContext, scope: _Scope, module_names: set[str]
    ) -> Iterator[Finding]:
        names = module_names | self._recorder_names(ctx, scope)
        tainted = self._compute_taint(ctx, scope, names)

        def leaks(node: ast.expr) -> bool:
            return self._contains_taint(ctx, node, tainted, names)

        # Call checks walk each statement subtree; the scope list contains
        # compound statements *and* their children, so dedupe by node id.
        seen_calls: set[int] = set()
        calls: list[ast.Call] = []
        for stmt in scope.statements:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and id(node) not in seen_calls:
                    seen_calls.add(id(node))
                    calls.append(node)

        # Read API: recorder methods and module-level collectors.
        for node in calls:
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _READ_METHODS
                and self._is_recorder_expr(ctx, node.func.value, names)
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"recorder.{node.func.attr}() in an instrumented "
                    "zone: telemetry is a write-only side channel here "
                    "— aggregate reads belong in free-zone reporting "
                    "tools",
                )
            elif _is_telemetry_module_func(canonical(node.func, ctx.aliases)):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{canonical(node.func, ctx.aliases)}() in an "
                    "instrumented zone: merging or summarizing "
                    "telemetry is free-zone reporting, not something "
                    "a result computation may consult",
                )

        # Tainted values handed to non-recorder calls.
        for node in calls:
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS
                and self._is_recorder_expr(ctx, node.func.value, names)
            ):
                continue  # the sanctioned sink
            tail = _tail(canonical(node.func, ctx.aliases))
            if tail in _NUMERIC_BUILTINS:
                continue  # pure numeric plumbing on the way to a sink
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if leaks(arg):
                    yield ctx.finding(
                        self.id,
                        node,
                        "passing a telemetry-clock-derived value to a "
                        "non-recorder call: recorder.now() readings "
                        "may only feed recorder write calls",
                    )
                    break

        for stmt in scope.statements:
            # Clock-taint leaks out of the recorder loop.
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if leaks(stmt.value):
                    yield ctx.finding(
                        self.id,
                        stmt,
                        "returning a value derived from the telemetry "
                        "clock: recorder.now() readings may only flow back "
                        "into the recorder, never into results",
                    )
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = getattr(stmt, "value", None)
                if value is None or not leaks(value):
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        yield ctx.finding(
                            self.id,
                            stmt,
                            "storing a telemetry-clock-derived value into "
                            "object state: that is how side-channel "
                            "readings end up in result payloads — keep "
                            "them in locals that feed recorder calls",
                        )
            elif isinstance(stmt, (ast.If, ast.While)):
                if leaks(stmt.test):
                    yield ctx.finding(
                        self.id,
                        stmt,
                        "branching on a telemetry-clock-derived value: "
                        "control flow influenced by the recorder makes "
                        "results depend on telemetry being enabled",
                    )
