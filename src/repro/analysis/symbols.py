"""Per-module symbol extraction: the unit of interprocedural analysis.

One parse of one file produces one :class:`ModuleSummary` — every
function with its outgoing call references, nondeterminism sources,
registry registrations and reads, plus class layouts (bases and
methods).  Summaries are plain data: the project pass needs nothing
else from a file once it has been summarized.

A :class:`SymbolTable` stitches summaries together and resolves absolute
dotted names to definitions, following re-export chains (``from x import
y as z``) across modules with a cycle guard.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterable, Mapping

from repro.analysis.astutil import ImportAliases, dotted
from repro.analysis.sources import (
    REGISTRY_CALLS,
    REGISTRY_DICTS,
    clock_call,
    rng_violation,
)
from repro.analysis.zones import Zone, zone_for

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleSummary",
    "Registration",
    "SourceSite",
    "SymbolTable",
    "module_name",
    "summarize_module",
]

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Rules whose pragmas kill a clock taint source at its site.
_CLOCK_WAIVERS = frozenset(
    {"transitive-wallclock", "no-wallclock", "lease-clock", "*"}
)
#: Rules whose pragmas kill an RNG taint source at its site.
_RNG_WAIVERS = frozenset({"transitive-rng", "seeded-rng", "*"})


def module_name(relpath: str) -> tuple[str, bool]:
    """``(dotted module name, is_package)`` for a repo-relative path.

    A leading ``src/`` component is stripped (the repo's layout), and
    ``pkg/__init__.py`` names the package itself.
    """
    parts = list(PurePosixPath(relpath).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return "", False
    is_package = parts[-1] == "__init__.py"
    if is_package:
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts), is_package


@dataclass(frozen=True)
class CallSite:
    """One outgoing call reference, pre-resolution.

    ``kind`` says how ``target`` should be resolved: ``"abs"`` is an
    alias-resolved absolute dotted path, ``"local"`` a bare name looked
    up in the caller's module, ``"self"`` a method name resolved through
    the enclosing class (then its bases).
    """

    kind: str
    target: str
    line: int


@dataclass(frozen=True)
class SourceSite:
    """One nondeterminism source: a clock read or an RNG violation."""

    rule: str  # the transitive rule this site feeds
    target: str  # canonical offending call, e.g. "time.time"
    line: int
    detail: str  # why this call is nondeterministic


@dataclass(frozen=True)
class Registration:
    """One ``register_*`` call: a dynamic edge source for the call graph."""

    family: str  # "policy" | "strategy" | "platform" | "metric" | "rule"
    name: str  # registered name when it is a string literal, else ""
    target_kind: str  # "abs" | "local" | "self" | "opaque"
    target: str
    line: int


@dataclass(frozen=True)
class FunctionInfo:
    """Everything the project pass needs to know about one function."""

    name: str  # dotted path within the module, e.g. "Scenario.to_payload"
    line: int
    code: str  # stripped ``def`` line, used when a finding anchors here
    cls: str = ""  # enclosing class path within the module, "" for free fns
    calls: tuple[CallSite, ...] = ()
    sources: tuple[SourceSite, ...] = ()
    registry_reads: tuple[str, ...] = ()  # registry families dispatched on


@dataclass(frozen=True)
class ClassInfo:
    """A class: its base references and the methods it defines."""

    name: str  # dotted path within the module
    line: int
    code: str
    bases: tuple[tuple[str, str], ...] = ()  # (kind, target) refs
    methods: tuple[str, ...] = ()


@dataclass
class ModuleSummary:
    """The interprocedural facts of one module, and nothing else."""

    module: str
    relpath: str
    zone: str
    is_package: bool = False
    exports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    registrations: tuple[Registration, ...] = ()


def _absolutize(target: str, package: str) -> str:
    """Resolve a leading-dots relative import target against ``package``."""
    if not target.startswith("."):
        return target
    level = len(target) - len(target.lstrip("."))
    rest = target[level:]
    parts = package.split(".") if package else []
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    if not parts:
        return rest
    return f"{'.'.join(parts)}.{rest}" if rest else ".".join(parts)


class _Extractor:
    """One recursive walk of a module tree, scope-aware."""

    def __init__(
        self,
        module: str,
        package: str,
        lines: tuple[str, ...],
        aliases: ImportAliases,
        exports: dict[str, str],
        waivers: Mapping[int, frozenset[str]],
    ) -> None:
        self.module = module
        self.package = package
        self.lines = lines
        self.aliases = aliases
        self.exports = exports
        self.waivers = waivers
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.registrations: list[Registration] = []
        self._path: list[str] = []  # mixed class/function name stack
        self._class: list[str] = []  # enclosing class paths
        self._calls: list[CallSite] = []
        self._sources: list[SourceSite] = []
        self._reads: set[str] = set()

    # -- scope plumbing ------------------------------------------------

    def _line_code(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _flush(self, name: str, line: int, code: str, cls: str) -> None:
        self.functions[name] = FunctionInfo(
            name=name,
            line=line,
            code=code,
            cls=cls,
            calls=tuple(self._calls),
            sources=tuple(self._sources),
            registry_reads=tuple(sorted(self._reads)),
        )
        self._calls, self._sources = [], []
        self._reads = set()

    def run(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            self._visit(stmt)
        self._flush(MODULE_BODY, 1, "", "")

    # -- node dispatch -------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node)
            return
        if isinstance(node, ast.ClassDef):
            self._visit_class(node)
            return
        if isinstance(node, ast.Call):
            self._record_call(node)
        elif isinstance(node, ast.Name) and node.id in REGISTRY_DICTS:
            self._reads.add(REGISTRY_DICTS[node.id])
        elif isinstance(node, ast.Attribute) and node.attr in REGISTRY_DICTS:
            self._reads.add(REGISTRY_DICTS[node.attr])
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        # Decorators and argument defaults execute in the enclosing
        # scope, at definition time — their calls belong to it.
        for deco in node.decorator_list:
            self._visit(deco)
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None:
                self._visit(default)
        funcpath = ".".join([*self._path, node.name])
        cls = self._class[-1] if self._class else ""
        outer = (self._calls, self._sources, self._reads)
        self._calls, self._sources = [], []
        self._reads = set()
        self._path.append(node.name)
        try:
            for stmt in node.body:
                self._visit(stmt)
        finally:
            self._path.pop()
            self._flush(
                funcpath, node.lineno, self._line_code(node.lineno), cls
            )
            self._calls, self._sources, self._reads = outer

    def _visit_class(self, node: ast.ClassDef) -> None:
        for deco in node.decorator_list:
            self._visit(deco)
        classpath = ".".join([*self._path, node.name])
        bases = []
        for base in node.bases:
            ref = self._expr_ref(base)
            if ref is not None:
                bases.append(ref)
        methods = tuple(
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        self.classes[classpath] = ClassInfo(
            name=classpath,
            line=node.lineno,
            code=self._line_code(node.lineno),
            bases=tuple(bases),
            methods=methods,
        )
        self._path.append(node.name)
        self._class.append(classpath)
        try:
            for stmt in node.body:
                self._visit(stmt)
        finally:
            self._path.pop()
            self._class.pop()

    # -- expression facts ----------------------------------------------

    def _expr_ref(self, expr: ast.expr) -> tuple[str, str] | None:
        """``(kind, target)`` for a callable/base reference, if resolvable."""
        if isinstance(expr, ast.Lambda):
            return ("opaque", "<lambda>")
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Call
        ):
            # ``Timer().read()``: a method on a just-constructed instance
            # resolves like a method on the class itself.
            inner = self._expr_ref(expr.value.func)
            if inner is not None and inner[0] in ("abs", "local"):
                return (inner[0], f"{inner[1]}.{expr.attr}")
            return None
        path = dotted(expr)
        if path is None:
            return None
        parts = path.split(".")
        head = parts[0]
        if head == "self" and self._class:
            if len(parts) == 2:
                return ("self", parts[1])
            return None
        if head in self.exports:
            rest = parts[1:]
            base = self.exports[head]
            return ("abs", ".".join([base, *rest]) if rest else base)
        if len(parts) == 1:
            return ("local", head)
        return None

    def _record_call(self, node: ast.Call) -> None:
        raw = dotted(node.func)
        last = raw.rsplit(".", 1)[-1] if raw else ""
        if last in REGISTRY_CALLS and len(node.args) >= 2:
            name_arg = node.args[0]
            name = (
                name_arg.value
                if isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                else ""
            )
            ref = self._expr_ref(node.args[1]) or ("opaque", "<expr>")
            self.registrations.append(
                Registration(
                    family=REGISTRY_CALLS[last],
                    name=name,
                    target_kind=ref[0],
                    target=ref[1],
                    line=node.lineno,
                )
            )
        ref = self._expr_ref(node.func)
        if ref is not None and ref[0] != "opaque":
            self._calls.append(
                CallSite(kind=ref[0], target=ref[1], line=node.lineno)
            )
        self._record_sources(node)

    def _record_sources(self, node: ast.Call) -> None:
        waived = self.waivers.get(node.lineno, frozenset())
        clock = clock_call(node, self.aliases)
        if clock is not None and not (waived & _CLOCK_WAIVERS):
            self._sources.append(
                SourceSite(
                    rule="transitive-wallclock",
                    target=clock,
                    line=node.lineno,
                    detail=f"{clock}() reads the process clock",
                )
            )
        rng = rng_violation(node, self.aliases)
        if rng is not None and not (waived & _RNG_WAIVERS):
            self._sources.append(
                SourceSite(
                    rule="transitive-rng",
                    target=rng[0],
                    line=node.lineno,
                    detail=f"{rng[0]}() draws nondeterministic randomness",
                )
            )


def summarize_module(
    tree: ast.Module,
    relpath: str,
    lines: tuple[str, ...],
    zone: Zone | None = None,
    waivers: Mapping[int, frozenset[str]] | None = None,
) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed file."""
    zone = zone if zone is not None else zone_for(relpath)
    mod, is_package = module_name(relpath)
    package = mod if is_package else mod.rpartition(".")[0]
    aliases = ImportAliases.collect(tree)
    exports = {
        name: _absolutize(target, package)
        for name, target in aliases.names.items()
    }
    extractor = _Extractor(
        module=mod,
        package=package,
        lines=lines,
        aliases=aliases,
        exports=exports,
        waivers=waivers or {},
    )
    extractor.run(tree)
    return ModuleSummary(
        module=mod,
        relpath=relpath,
        zone=zone.value,
        is_package=is_package,
        exports=exports,
        functions=extractor.functions,
        classes=extractor.classes,
        registrations=tuple(extractor.registrations),
    )


class SymbolTable:
    """Project-wide name resolution over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, tuple[ModuleSummary, FunctionInfo]] = {}
        self.classes: dict[str, tuple[ModuleSummary, ClassInfo]] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
            for path, info in summary.functions.items():
                self.functions[f"{summary.module}.{path}"] = (summary, info)
            for path, info in summary.classes.items():
                self.classes[f"{summary.module}.{path}"] = (summary, info)

    def resolve(self, target: str, _seen: set[str] | None = None) -> str | None:
        """Absolute dotted name → qualname of a known function or class.

        Follows re-export chains: if ``repro.api`` does ``from .impl
        import run as launch``, then ``repro.api.launch`` resolves to
        ``repro.impl.run``.  Cycles in the re-export graph terminate via
        the ``_seen`` guard.
        """
        seen = _seen if _seen is not None else set()
        if target in seen:
            return None
        seen.add(target)
        if target in self.functions or target in self.classes:
            return target
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            summary = self.modules.get(mod)
            if summary is None:
                continue
            via = summary.exports.get(parts[cut])
            if via is None:
                return None
            rest = parts[cut + 1 :]
            return self.resolve(".".join([via, *rest]) if rest else via, seen)
        return None

    def function(self, qualname: str) -> FunctionInfo | None:
        entry = self.functions.get(qualname)
        return entry[1] if entry else None

    def summary_of(self, qualname: str) -> ModuleSummary | None:
        entry = self.functions.get(qualname) or self.classes.get(qualname)
        return entry[0] if entry else None
