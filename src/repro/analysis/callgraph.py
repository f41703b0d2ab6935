"""The project call graph: resolved edges over module summaries.

Static edges come from resolving each function's recorded call sites
through the :class:`~repro.analysis.symbols.SymbolTable` — absolute
imports, bare local names (enclosing scopes, then module, then module
imports), and ``self.method()`` through the enclosing class and its
bases.  Dynamic edges come from the repo's registry idiom: a function
that reads ``POLICY_REGISTRY`` dispatches to *every* target passed to
``register_policy`` anywhere in the project, so it gets an edge to each
(class targets expand to all their methods).  Calls to a class get an
edge to its ``__init__``.

The graph is what every cross-file rule walks; ``to_dot`` dumps it for
``python -m repro.analysis --graph dot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.symbols import (
    CallSite,
    ModuleSummary,
    SymbolTable,
)

__all__ = ["CallGraph", "Edge", "ProjectContext"]


@dataclass(frozen=True)
class Edge:
    """One resolved call edge, annotated with how it was discovered."""

    caller: str
    callee: str
    line: int  # call-site line in the caller's file
    via: str = "call"  # "call" | "registry:<family>"


def _class_of(table: SymbolTable, qualname: str):
    entry = table.classes.get(qualname)
    return entry[1] if entry else None


def _resolve_class_ref(
    table: SymbolTable, summary: ModuleSummary, kind: str, target: str
) -> str | None:
    """Resolve a base-class reference recorded in ``summary``."""
    if kind == "abs":
        return table.resolve(target)
    if kind == "local":
        candidate = f"{summary.module}.{target}"
        if candidate in table.classes:
            return candidate
        via = summary.exports.get(target)
        if via is not None:
            return table.resolve(via)
    return None


class CallGraph:
    """Directed call graph with forward and reverse adjacency."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: dict[str, list[Edge]] = {}
        self.reverse: dict[str, list[Edge]] = {}
        #: family → qualnames of every registered target (methods expanded)
        self.registry_targets: dict[str, tuple[str, ...]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        graph._collect_registry_targets()
        for qualname, (summary, info) in table.functions.items():
            for site in info.calls:
                callee = graph.resolve_call(summary, info.cls, site)
                if callee is not None:
                    graph._add(
                        Edge(caller=qualname, callee=callee, line=site.line)
                    )
            for family in info.registry_reads:
                for target in graph.registry_targets.get(family, ()):
                    graph._add(
                        Edge(
                            caller=qualname,
                            callee=target,
                            line=info.line,
                            via=f"registry:{family}",
                        )
                    )
        return graph

    def _add(self, edge: Edge) -> None:
        self.edges.setdefault(edge.caller, []).append(edge)
        self.reverse.setdefault(edge.callee, []).append(edge)

    def _collect_registry_targets(self) -> None:
        found: dict[str, list[str]] = {}
        for summary in self.table.modules.values():
            for reg in summary.registrations:
                qual = self._resolve_ref(
                    summary, "", reg.target_kind, reg.target
                )
                if qual is None:
                    continue
                targets = found.setdefault(reg.family, [])
                cls_info = _class_of(self.table, qual)
                if cls_info is not None:
                    targets.extend(
                        f"{qual}.{method}" for method in cls_info.methods
                    )
                else:
                    targets.append(qual)
        self.registry_targets = {
            family: tuple(sorted(set(targets)))
            for family, targets in found.items()
        }

    # -- resolution ----------------------------------------------------

    def resolve_call(
        self, summary: ModuleSummary, caller_cls: str, site: CallSite
    ) -> str | None:
        """The qualname a call site lands on, or ``None`` (opaque)."""
        qual = self._resolve_ref(summary, caller_cls, site.kind, site.target)
        if qual is None:
            return None
        if qual in self.table.classes:
            init = f"{qual}.__init__"
            return init if init in self.table.functions else None
        return qual

    def _resolve_ref(
        self, summary: ModuleSummary, caller_cls: str, kind: str, target: str
    ) -> str | None:
        table = self.table
        if kind == "abs":
            qual = table.resolve(target)
            if qual is not None:
                return qual
            return self._resolve_instance_method(summary, target)
        if kind == "local":
            candidate = f"{summary.module}.{target}"
            if candidate in table.functions or candidate in table.classes:
                return candidate
            via = summary.exports.get(target)
            if via is not None:
                return table.resolve(via)
            return self._resolve_instance_method(
                summary, f"{summary.module}.{target}"
            )
        if kind == "self" and caller_cls:
            return self._resolve_method(
                summary, f"{summary.module}.{caller_cls}", target, set()
            )
        return None

    def _resolve_instance_method(
        self, summary: ModuleSummary, target: str
    ) -> str | None:
        """``Timer().read()`` where ``read`` is inherited from a base.

        The direct qualname lookup already covers methods the class
        defines itself; this peels the method name off and walks the
        class's bases for the defining class.
        """
        if "." not in target:
            return None
        class_ref, method = target.rsplit(".", 1)
        class_qual = self.table.resolve(class_ref)
        if class_qual is None or class_qual not in self.table.classes:
            return None
        base_summary = self.table.classes[class_qual][0]
        return self._resolve_method(base_summary, class_qual, method, set())

    def _resolve_method(
        self,
        summary: ModuleSummary,
        class_qual: str,
        method: str,
        seen: set[str],
    ) -> str | None:
        """``self.method()`` → the defining class, walking bases (MRO-ish)."""
        if class_qual in seen:
            return None
        seen.add(class_qual)
        entry = self.table.classes.get(class_qual)
        if entry is None:
            return None
        base_summary, info = entry
        if method in info.methods:
            return f"{class_qual}.{method}"
        for kind, target in info.bases:
            base_qual = _resolve_class_ref(
                self.table, base_summary, kind, target
            )
            if base_qual is None:
                continue
            found = self._resolve_method(base_summary, base_qual, method, seen)
            if found is not None:
                return found
        return None

    # -- output --------------------------------------------------------

    def to_dot(self) -> str:
        """GraphViz rendering (call edges solid, registry edges dashed)."""
        lines = ["digraph callgraph {", "  rankdir=LR;"]
        nodes: set[str] = set()
        for edges in self.edges.values():
            for edge in edges:
                nodes.update((edge.caller, edge.callee))
        for node in sorted(nodes):
            lines.append(f'  "{node}";')
        for caller in sorted(self.edges):
            for edge in sorted(
                self.edges[caller], key=lambda e: (e.callee, e.line)
            ):
                attrs = f'label="{edge.via}", style=dashed' if edge.via != "call" else ""
                suffix = f" [{attrs}]" if attrs else ""
                lines.append(f'  "{edge.caller}" -> "{edge.callee}"{suffix};')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class ProjectContext:
    """Everything a :class:`~repro.analysis.registry.ProjectRule` sees."""

    table: SymbolTable
    graph: CallGraph
    #: relpaths restricted by the incremental engine this run, or None
    #: when the whole project was (re)analyzed.  Rules may use this to
    #: skip work, never to widen it.
    affected: frozenset[str] | None = None
    _extra: dict = field(default_factory=dict)
