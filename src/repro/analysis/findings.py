"""Findings: one rule violation at one source location.

A finding's identity for baseline purposes is its *fingerprint* — a
stable hash of the rule id, the file path, and the offending source line
text (plus an occurrence index for identical lines), deliberately **not**
the line number: inserting a docstring above a grandfathered violation
must not expire its baseline entry, and fixing the violation must.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.cas import stable_hash

__all__ = ["Finding", "fingerprinted"]


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source line.

    Interprocedural findings additionally carry a ``chain``: the call
    path from the flagged location down to the underlying source, as
    ``(label, path, line)`` hops.  The chain's labels and paths join the
    fingerprint (line numbers do not — moving a chain must not expire a
    baseline entry, rerouting it must); chainless findings keep the
    exact PR 8 fingerprint recipe so existing baselines stay stable.
    """

    rule: str
    path: str  # repo-relative posix path, as reported and baselined
    line: int
    col: int
    message: str
    code: str  # stripped source line text (fingerprint ingredient)
    fingerprint: str = ""
    chain: tuple[tuple[str, str, int], ...] = ()

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render_chain(self) -> str:
        """``a (p:1) -> b (q:2)`` rendering, empty for chainless findings."""
        return " -> ".join(
            f"{label} ({path}:{line})" for label, path, line in self.chain
        )

    def to_payload(self) -> dict:
        payload = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "code": self.code,
            "fingerprint": self.fingerprint,
        }
        if self.chain:
            payload["chain"] = [list(hop) for hop in self.chain]
        return payload


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule)


def fingerprinted(findings: Iterable[Finding]) -> list[Finding]:
    """Sorted findings with stable fingerprints assigned.

    Identical (rule, path, code) triples are disambiguated by their
    occurrence index in line order, so two copies of the same offending
    line baseline independently and fixing one expires exactly one entry.
    """
    counts: dict[tuple[str, str, str], int] = {}
    out = []
    for finding in sorted(findings, key=_sort_key):
        key = (finding.rule, finding.path, finding.code)
        index = counts.get(key, 0)
        counts[key] = index + 1
        ingredients: dict = {
            "rule": finding.rule,
            "path": finding.path,
            "code": finding.code,
            "occurrence": index,
        }
        if finding.chain:
            # Labels and paths only: a chain that merely shifts lines is
            # the same violation; one that routes differently is not.
            ingredients["chain"] = [
                [label, path] for label, path, _line in finding.chain
            ]
        out.append(
            replace(
                finding,
                fingerprint=stable_hash(ingredients, length=16),
            )
        )
    return out
