"""Findings: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Finding", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source line.

    Interprocedural findings additionally carry a ``chain``: the call
    path from the flagged location down to the underlying source, as
    ``(label, path, line)`` hops.
    """

    rule: str
    path: str  # repo-relative posix path, as reported
    line: int
    col: int
    message: str
    code: str  # stripped source line text
    chain: tuple[tuple[str, str, int], ...] = ()

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render_chain(self) -> str:
        """``a (p:1) -> b (q:2)`` rendering, empty for chainless findings."""
        return " -> ".join(
            f"{label} ({path}:{line})" for label, path, line in self.chain
        )


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Findings in report order: path, line, column, rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
