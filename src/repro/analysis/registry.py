"""The ``Rule`` protocol and its registry.

Mirrors the repo's ``register_policy`` / ``register_strategy`` idiom: a
rule is a named object in an open registry, built-ins pre-populate it,
and third parties extend it with :func:`register_rule` — duplicate names
are an error unless explicitly overwritten.

A rule sees one :class:`FileContext` per analyzed file (parsed tree,
source lines, resolved import aliases, and the file's enforcement
:class:`~repro.analysis.zones.Zone`) and yields
:class:`~repro.analysis.findings.Finding` objects, usually via
:meth:`FileContext.finding` which fills in location and source text.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.astutil import ImportAliases
from repro.analysis.findings import Finding
from repro.analysis.zones import Zone

__all__ = [
    "ALL_ZONES",
    "FileContext",
    "PROJECT_RULE_REGISTRY",
    "ProjectRule",
    "RULE_REGISTRY",
    "Rule",
    "iter_project_rules",
    "iter_rules",
    "register_rule",
    "registered_rules",
]

#: Convenience for rules that apply everywhere (import hygiene and the
#: serialization rule care about call shape, not zone).
ALL_ZONES = frozenset(Zone)


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    relpath: str  # repo-relative posix path used in reports and baselines
    zone: Zone
    tree: ast.Module
    lines: tuple[str, ...]
    aliases: ImportAliases = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.aliases is None:
            self.aliases = ImportAliases.collect(self.tree)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """A finding pinned to ``node``'s source line."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule_id,
            path=self.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            code=self.line_text(line).strip(),
        )


class Rule(ABC):
    """One machine-checked invariant.

    ``zones`` names where the invariant holds; the analyzer only calls
    :meth:`check` for files whose zone is in the set.  Rules that need
    finer path logic (e.g. excluding the module they deprecate) apply it
    inside ``check`` via ``ctx.relpath``.
    """

    #: Stable identifier used in reports, pragmas, and baseline entries.
    id: str = "abstract"
    #: One-line description shown by ``--list-rules``.
    summary: str = ""
    #: Zones in which this rule runs.
    zones: frozenset[Zone] = ALL_ZONES

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation in ``ctx``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.id!r})"


class ProjectRule(ABC):
    """One machine-checked *whole-program* invariant.

    Where a :class:`Rule` sees one file at a time, a project rule sees
    the stitched-together view of every analyzed file — a
    :class:`~repro.analysis.callgraph.ProjectContext` holding the symbol
    table and call graph — and yields findings that may span files (via
    ``Finding.chain``).  Project rules run once per analysis pass, after
    every file has been summarized.
    """

    #: Stable identifier used in reports, pragmas, and baseline entries.
    id: str = "abstract"
    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    @abstractmethod
    def check(self, ctx) -> Iterator[Finding]:
        """Yield every violation visible in the project context."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.id!r})"


#: Backing store for :func:`register_rule` — prefer the function over
#: mutating this dict directly.
RULE_REGISTRY: dict[str, Rule] = {}

#: Project-wide rules, registered separately: the analyzer runs them
#: once per pass, not once per file.
PROJECT_RULE_REGISTRY: dict[str, ProjectRule] = {}


def register_rule(
    rule: Rule | ProjectRule, overwrite: bool = False
) -> Rule | ProjectRule:
    """Register ``rule`` under its ``id`` so the analyzer runs it.

    Per-file :class:`Rule` and whole-program :class:`ProjectRule`
    instances land in separate registries but share the id namespace —
    a pragma or baseline entry never needs to know which kind produced
    a finding.  Returns ``rule`` so definitions can chain registration.
    """
    if not isinstance(rule, (Rule, ProjectRule)):
        raise TypeError(f"expected a Rule instance, got {type(rule).__name__}")
    if not rule.id or rule.id == "abstract":
        raise ValueError(f"rule {rule!r} must define a stable id")
    if not overwrite and (
        rule.id in RULE_REGISTRY or rule.id in PROJECT_RULE_REGISTRY
    ):
        raise ValueError(
            f"rule {rule.id!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    if isinstance(rule, ProjectRule):
        PROJECT_RULE_REGISTRY[rule.id] = rule
    else:
        RULE_REGISTRY[rule.id] = rule
    return rule


def registered_rules() -> tuple[str, ...]:
    """Sorted ids of every registered rule, per-file and project-wide."""
    return tuple(sorted({*RULE_REGISTRY, *PROJECT_RULE_REGISTRY}))


def iter_rules() -> tuple[Rule, ...]:
    """Every registered per-file rule, in id order."""
    return tuple(RULE_REGISTRY[name] for name in sorted(RULE_REGISTRY))


def iter_project_rules() -> tuple[ProjectRule, ...]:
    """Every registered project rule, in id order."""
    return tuple(
        PROJECT_RULE_REGISTRY[name] for name in sorted(PROJECT_RULE_REGISTRY)
    )
