"""The rule base classes and the per-file context a rule sees.

The analyzer runs a fixed set of instances,
:data:`repro.analysis.rules.FILE_RULES` and
:data:`~repro.analysis.rules.PROJECT_RULES`.  A per-file rule sees one
:class:`FileContext` per analyzed file (parsed tree, source lines,
resolved import aliases, and the file's enforcement
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

__all__ = ["ALL_ZONES", "FileContext", "ProjectRule", "Rule"]

#: Convenience for rules that apply everywhere (the serialization rule
#: cares about call shape, not zone).
ALL_ZONES = frozenset(Zone)


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    relpath: str  # repo-relative posix path used in reports
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
    finer path logic (e.g. exempting one module) apply it
    inside ``check`` via ``ctx.relpath``.
    """

    #: Stable identifier used in reports and pragmas.
    id: str = "abstract"
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
    :class:`~repro.analysis.dataflow.ProjectContext` holding the symbol
    table, call graph and determinism taint — and yields findings that
    may span files (via ``Finding.chain``).  Project rules run once per
    analysis pass, after every file has been summarized.
    """

    #: Stable identifier used in reports and pragmas.
    id: str = "abstract"

    @abstractmethod
    def check(self, ctx) -> Iterator[Finding]:
        """Yield every violation visible in the project context."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.id!r})"

