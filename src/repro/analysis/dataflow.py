"""Interprocedural determinism taint over the call graph.

A pure function of a :class:`~repro.analysis.symbols.SymbolTable` and a
:class:`~repro.analysis.callgraph.CallGraph`: a nondeterminism source
(clock read, unseeded RNG) in a *free*-zone function taints every
free-zone function that can reach it; a deterministic-zone function with
an edge into a tainted free function is a **boundary violation**.
Findings anchor at the boundary (the one place a fix — injecting a
clock, passing a seed — belongs) and carry the full shortest call chain
down to the source.  Sources *inside* deterministic or distributed zones
are deliberately not seeds: the per-file rules already flag those lines
directly, and the distributed zone reads clocks as its job.

The engine computes the taint once per pass and hands it to every
project rule inside a :class:`ProjectContext`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph
from repro.analysis.symbols import SourceSite, SymbolTable
from repro.analysis.zones import Zone

__all__ = ["ProjectContext", "TaintChain", "compute_taint"]


@dataclass(frozen=True)
class TaintChain:
    """One boundary violation with its full call chain to the source."""

    rule: str  # "transitive-wallclock" | "transitive-rng"
    boundary: str  # qualname of the deterministic-zone function
    boundary_path: str
    boundary_line: int  # the function's def line (finding anchor)
    boundary_code: str  # stripped def line (the finding's code)
    #: (label, path, line) hops: boundary at its call site, each free
    #: function at the line it calls the next hop, then the source call.
    chain: tuple[tuple[str, str, int], ...]
    source: SourceSite


@dataclass(frozen=True)
class ProjectContext:
    """Everything a :class:`~repro.analysis.rulebase.ProjectRule` sees."""

    table: SymbolTable
    graph: CallGraph
    taint: tuple[TaintChain, ...]


def _zone(table: SymbolTable, qualname: str) -> str:
    summary = table.summary_of(qualname)
    return summary.zone if summary is not None else Zone.FREE.value


def compute_taint(table: SymbolTable, graph: CallGraph) -> list[TaintChain]:
    """Every deterministic→free boundary that reaches a source."""
    # Seed: source sites in free-zone functions.  BFS order makes every
    # recorded chain a shortest one, and sorting the seeds makes the
    # chosen chain deterministic across runs.
    taint: dict[tuple[str, str], tuple[SourceSite, str | None, int]] = {}
    queue: deque[tuple[str, str]] = deque()
    for qualname in sorted(table.functions):
        summary, info = table.functions[qualname]
        if summary.zone != Zone.FREE.value:
            continue
        for site in sorted(info.sources, key=lambda s: (s.rule, s.line)):
            key = (qualname, site.rule)
            if key not in taint:
                taint[key] = (site, None, site.line)
                queue.append(key)

    # Propagate backwards through free-zone callers only: the taint
    # stops at a zone boundary, where it becomes a finding instead.
    while queue:
        qualname, rule = queue.popleft()
        source, _, _ = taint[(qualname, rule)]
        for edge in sorted(
            graph.reverse.get(qualname, ()), key=lambda e: (e.caller, e.line)
        ):
            if _zone(table, edge.caller) != Zone.FREE.value:
                continue
            key = (edge.caller, rule)
            if key in taint:
                continue
            taint[key] = (source, qualname, edge.line)
            queue.append(key)

    # Boundary scan: deterministic functions with an edge into taint.
    results: list[TaintChain] = []
    seen: set[tuple[str, str, str]] = set()
    for qualname in sorted(table.functions):
        summary, info = table.functions[qualname]
        if summary.zone != Zone.DETERMINISTIC.value:
            continue
        for edge in sorted(
            graph.edges.get(qualname, ()), key=lambda e: (e.line, e.callee)
        ):
            for rule in ("transitive-wallclock", "transitive-rng"):
                record = taint.get((edge.callee, rule))
                if record is None:
                    continue
                if _zone(table, edge.callee) != Zone.FREE.value:
                    continue
                source = record[0]
                dedup = (qualname, rule, source.target)
                if dedup in seen:
                    continue
                seen.add(dedup)
                chain = [(qualname, summary.relpath, edge.line)]
                cursor: str | None = edge.callee
                while cursor is not None:
                    hop_summary = table.summary_of(cursor)
                    hop_path = (
                        hop_summary.relpath if hop_summary else "<unknown>"
                    )
                    src, nxt, hop_line = taint[(cursor, rule)]
                    chain.append((cursor, hop_path, hop_line))
                    if nxt is None:
                        chain.append((src.target, hop_path, src.line))
                    cursor = nxt
                results.append(
                    TaintChain(
                        rule=rule,
                        boundary=qualname,
                        boundary_path=summary.relpath,
                        boundary_line=info.line,
                        boundary_code=info.code,
                        chain=tuple(chain),
                        source=source,
                    )
                )
    return results
