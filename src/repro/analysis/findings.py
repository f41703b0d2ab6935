"""Findings: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Finding", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source line."""

    rule: str
    path: str  # repo-relative posix path, as reported
    line: int
    col: int
    message: str
    code: str  # stripped source line text

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Findings in report order: path, line, column, rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
