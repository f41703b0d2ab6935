"""Broker-serialization-safety rule.

Scenarios travel to remote workers as *names*: a worker re-resolves
``scenario.policy`` through ``POLICY_REGISTRY`` after importing the
module that registered it (``worker --import that.module``).  That
contract only holds for callables that exist at import time.  A lambda,
closure, or class defined *inside a function* and handed to a
registration or submission call exists only in the submitting process —
every remote job fails with "unknown policy", or worse, resolves to a
same-named callable closing over different state.

Module-level lambdas are deliberately allowed: re-importing the module
re-registers the identical callable, so they resolve remotely.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted
from repro.analysis.findings import Finding
from repro.analysis.rulebase import ALL_ZONES, FileContext, Rule

__all__ = ["SerializationSafetyRule"]

#: Call sites whose callable arguments must resolve inside remote workers.
REGISTRATION_CALLS = frozenset(
    {
        "register_policy",
        "register_strategy",
        "register_platform",
        "submit",
        "submit_many",
    }
)


class SerializationSafetyRule(Rule):
    """No call-time-only callables into registries or job submission."""

    id = "serialization-safety"
    zones = ALL_ZONES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        visitor = _Visitor(self.id, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule_id: str, ctx: FileContext) -> None:
        self.rule_id = rule_id
        self.ctx = ctx
        self.findings: list[Finding] = []
        #: One set of locally-defined callable names per enclosing function.
        self._scopes: list[set[str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        local = {
            sub.name
            for sub in ast.walk(node)
            if sub is not node
            and isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        self._scopes.append(local)
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # same scoping rules

    def visit_Call(self, node: ast.Call) -> None:
        if self._scopes and self._call_name(node) in REGISTRATION_CALLS:
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                self._check_arg(node, arg)
        self.generic_visit(node)

    @staticmethod
    def _call_name(node: ast.Call) -> str | None:
        path = dotted(node.func)
        if path is not None:
            return path.rpartition(".")[2]
        return None

    def _check_arg(self, call: ast.Call, arg: ast.expr) -> None:
        site = self._call_name(call)
        if isinstance(arg, ast.Lambda):
            self.findings.append(
                self.ctx.finding(
                    self.rule_id,
                    arg,
                    f"lambda passed to {site}() inside a function: remote "
                    "workers resolve registrations by importing modules, "
                    "and a call-time closure never exists there — define "
                    "the builder at module level and register it by name",
                )
            )
        elif isinstance(arg, ast.Name) and any(
            arg.id in scope for scope in self._scopes
        ):
            self.findings.append(
                self.ctx.finding(
                    self.rule_id,
                    arg,
                    f"locally-defined {arg.id!r} passed to {site}() : a "
                    "function-local def/class is unreachable from a remote "
                    "worker's import of this module — hoist it to module "
                    "level",
                )
            )
