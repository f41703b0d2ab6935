"""The analyzer: parse files, run rules, honor pragmas, stay warm.

Per-file pass: one parse per file; every registered per-file rule whose
zone set contains the file's zone runs over the shared tree, and the
same tree is summarized for the project pass.  Project pass: the module
summaries are stitched into a symbol table and call graph, and every
registered :class:`~repro.analysis.registry.ProjectRule` (transitive
taint, schema drift) runs once over the whole program.

Findings can be suppressed inline with a pragma anywhere in the
*enclosing statement* (or on a comment line directly above it)::

    now = time.time()  # repro-lint: ignore[no-wallclock] -- why it's ok

Pragma scope is the statement's span, so a pragma above a decorator
waives the decorated ``def``, and one on the first line of a wrapped
call waives the whole call.  The pragma names the rule id (or ``*``);
everything after ``--`` is the justification, kept next to the code it
excuses.  Grandfathered findings that should *eventually* be fixed
belong in the baseline file instead (:mod:`repro.analysis.baseline`),
which expires entries as they are fixed.

With a cache (:mod:`repro.analysis.incremental`), unchanged files are
never re-parsed, and a run where *nothing* changed returns the previous
findings without even building the call graph.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.callgraph import CallGraph, ProjectContext
from repro.analysis.findings import Finding, fingerprinted
from repro.analysis.incremental import AnalysisCache, reverse_cone
from repro.analysis.registry import FileContext, iter_project_rules, iter_rules
from repro.analysis.symbols import ModuleSummary, SymbolTable, summarize_module
from repro.analysis.zones import Zone, zone_for

__all__ = [
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "build_waivers",
    "iter_python_files",
]

_PRAGMA = re.compile(r"#\s*repro-lint:\s*ignore\[([^\]]*)\]")

#: Rule id reserved for files the parser rejects (never registered — a
#: syntactically broken file can't be rule-checked at all).
PARSE_ERROR_RULE = "parse-error"


@dataclass
class AnalysisReport:
    """Everything one analyzer pass produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0  # pragma-silenced findings
    cache_hits: int = 0
    cache_misses: int = 0

    def to_payload(self) -> dict:
        return {
            "findings": [finding.to_payload() for finding in self.findings],
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Every ``*.py`` under ``paths`` (files pass through), sorted."""
    out: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            out.update(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _pragma_ids(text: str) -> frozenset[str]:
    match = _PRAGMA.search(text)
    if not match:
        return frozenset()
    return frozenset(
        part.strip() for part in match.group(1).split(",") if part.strip()
    )


def _stmt_span(stmt: ast.stmt) -> tuple[int, int]:
    """The lines a pragma anywhere within waives, for one statement.

    Defs and classes span their decorators through the header (a pragma
    above a decorator covers the whole signature); other compound
    statements cover their (possibly multi-line) header; simple
    statements cover their full source extent, so a pragma on the first
    line of a wrapped call waives the violation reported three lines
    down.
    """
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        start = min(
            [deco.lineno for deco in stmt.decorator_list] + [stmt.lineno]
        )
        end = max(stmt.lineno, stmt.body[0].lineno - 1) if stmt.body else stmt.lineno
        return start, end
    if isinstance(
        stmt,
        (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try),
    ):
        end = max(stmt.lineno, stmt.body[0].lineno - 1) if stmt.body else stmt.lineno
        return stmt.lineno, end
    return stmt.lineno, stmt.end_lineno or stmt.lineno


def build_waivers(
    tree: ast.Module, lines: Sequence[str]
) -> dict[int, frozenset[str]]:
    """Map each source line to the rule ids pragmas waive on it.

    A pragma binds to the statement span containing it (plus the span
    directly below when the pragma sits on its own comment line), and
    the waiver applies to every line of that span — so findings reported
    anywhere inside a multi-line statement or decorated def see it.
    """
    pragma_lines: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        ids = _pragma_ids(text)
        if ids:
            pragma_lines[lineno] = ids
    if not pragma_lines:
        return {}

    waivers: dict[int, set[str]] = {
        lineno: set(ids) for lineno, ids in pragma_lines.items()
    }

    def comment_above(lineno: int) -> frozenset[str]:
        index = lineno - 2
        if 0 <= index < len(lines) and lines[index].lstrip().startswith("#"):
            return pragma_lines.get(lineno - 1, frozenset())
        return frozenset()

    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start, end = _stmt_span(node)
        ids: set[str] = set()
        for lineno in range(start, end + 1):
            ids |= pragma_lines.get(lineno, frozenset())
        ids |= comment_above(start)
        if not ids:
            continue
        for lineno in range(start, end + 1):
            waivers.setdefault(lineno, set()).update(ids)
    # A pragma on a bare comment line also covers the line below it even
    # when that line starts no statement we walked (e.g. a continuation).
    for lineno, ids in pragma_lines.items():
        waivers.setdefault(lineno + 1, set()).update(ids)
    return {lineno: frozenset(ids) for lineno, ids in waivers.items()}


def _waived(rule: str, line: int, waivers: Mapping[int, frozenset[str]]) -> bool:
    ids = waivers.get(line)
    return bool(ids) and (rule in ids or "*" in ids)


def _analyze_tree(
    ctx: FileContext, waivers: Mapping[int, frozenset[str]]
) -> tuple[list[Finding], int]:
    kept: list[Finding] = []
    suppressed = 0
    for rule in iter_rules():
        if ctx.zone not in rule.zones:
            continue
        for finding in rule.check(ctx):
            if _waived(finding.rule, finding.line, waivers):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed


def _parse_error_finding(
    exc: SyntaxError, relpath: str, lines: Sequence[str]
) -> Finding:
    line = exc.lineno or 1
    return Finding(
        rule=PARSE_ERROR_RULE,
        path=relpath,
        line=line,
        col=exc.offset or 0,
        message=f"file does not parse: {exc.msg}",
        code=lines[line - 1].strip() if line <= len(lines) else "",
    )


def analyze_source(
    source: str, relpath: str, zone: Zone | None = None
) -> list[Finding]:
    """Analyze one source string (fixture tests and editor integrations).

    Runs the per-file rules only — cross-file rules need a project to
    cross, so they live in :func:`analyze_paths`.  ``zone`` defaults to
    whatever :func:`zone_for` derives from ``relpath``.  Findings come
    back fingerprinted and sorted.
    """
    zone = zone if zone is not None else zone_for(relpath)
    lines = tuple(source.splitlines())
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return fingerprinted([_parse_error_finding(exc, relpath, lines)])
    ctx = FileContext(relpath=relpath, zone=zone, tree=tree, lines=lines)
    kept, _ = _analyze_tree(ctx, build_waivers(tree, lines))
    return fingerprinted(kept)


def _run_project_rules(
    summaries: list[ModuleSummary],
    waivers_by_path: Mapping[str, Mapping[int, frozenset[str]]],
    affected: frozenset[str] | None,
) -> tuple[list[Finding], int]:
    table = SymbolTable(summaries)
    graph = CallGraph.build(table)
    ctx = ProjectContext(table=table, graph=graph, affected=affected)
    kept: list[Finding] = []
    suppressed = 0
    for rule in iter_project_rules():
        for finding in rule.check(ctx):
            file_waivers = waivers_by_path.get(finding.path, {})
            if _waived(finding.rule, finding.line, file_waivers):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed


def analyze_paths(
    paths: Iterable[Path | str],
    root: Path | str | None = None,
    zone: Zone | None = None,
    cache: AnalysisCache | None = None,
) -> AnalysisReport:
    """Analyze every Python file under ``paths``, then the whole program.

    ``root`` anchors the repo-relative paths used in reports and baseline
    fingerprints (default: the current directory — ``make lint`` runs
    from the repo root).  ``zone`` forces a single zone for every file
    (fixture checking); by default each file's zone comes from the zone
    map.  ``cache`` enables incremental analysis: unchanged files reuse
    their cached findings and module summaries, and a fully-unchanged
    run short-circuits to the previous report.
    """
    root = Path(root) if root is not None else Path.cwd()
    zone_tag = zone.value if zone is not None else ""
    report = AnalysisReport()

    records: list[tuple[Path, str, Zone]] = []
    for path in iter_python_files(paths):
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        file_zone = zone if zone is not None else zone_for(relpath)
        records.append((path, relpath, file_zone))

    data_by_path: dict[str, bytes] = {}
    keys: dict[str, str] = {}
    if cache is not None:
        for path, relpath, file_zone in records:
            data = path.read_bytes()
            data_by_path[relpath] = data
            keys[relpath] = cache.file_key(relpath, file_zone.value, data)
        state = cache.load_state(root, zone_tag)
        if state is not None and state.get("files") == keys:
            # Nothing changed since the last clean run: the previous
            # findings are, byte for byte, this run's findings.
            cache.hits += len(keys)
            report.findings = [
                Finding.from_payload(p) for p in state["findings"]
            ]
            report.files_scanned = state["files_scanned"]
            report.suppressed = state["suppressed"]
            report.cache_hits = cache.hits
            report.cache_misses = cache.misses
            return report

    collected: list[Finding] = []
    summaries: list[ModuleSummary] = []
    waivers_by_path: dict[str, Mapping[int, frozenset[str]]] = {}
    changed: set[str] = set()
    for path, relpath, file_zone in records:
        report.files_scanned += 1
        entry = (
            cache.load_entry(keys[relpath]) if cache is not None else None
        )
        if entry is not None:
            collected.extend(
                Finding.from_payload(p) for p in entry["findings"]
            )
            report.suppressed += entry["suppressed"]
            if entry["summary"] is not None:
                summaries.append(ModuleSummary.from_payload(entry["summary"]))
            waivers_by_path[relpath] = {
                int(lineno): frozenset(ids)
                for lineno, ids in entry["waivers"].items()
            }
            continue
        changed.add(relpath)
        if relpath in data_by_path:
            source = data_by_path[relpath].decode("utf-8")
        else:
            source = path.read_text(encoding="utf-8")
        lines = tuple(source.splitlines())
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            finding = _parse_error_finding(exc, relpath, lines)
            collected.append(finding)
            if cache is not None:
                cache.store_entry(
                    keys[relpath],
                    {
                        "findings": [finding.to_payload()],
                        "suppressed": 0,
                        "summary": None,
                        "waivers": {},
                    },
                )
            continue
        waivers = build_waivers(tree, lines)
        waivers_by_path[relpath] = waivers
        ctx = FileContext(
            relpath=relpath, zone=file_zone, tree=tree, lines=lines
        )
        kept, suppressed = _analyze_tree(ctx, waivers)
        summary = summarize_module(
            tree, relpath, lines, zone=file_zone, waivers=waivers
        )
        collected.extend(kept)
        summaries.append(summary)
        report.suppressed += suppressed
        if cache is not None:
            cache.store_entry(
                keys[relpath],
                {
                    "findings": [f.to_payload() for f in kept],
                    "suppressed": suppressed,
                    "summary": summary.to_payload(),
                    "waivers": {
                        str(lineno): sorted(ids)
                        for lineno, ids in waivers.items()
                    },
                },
            )

    if summaries:
        affected = (
            reverse_cone(summaries, changed) if cache is not None else None
        )
        project_findings, project_suppressed = _run_project_rules(
            summaries, waivers_by_path, affected
        )
        collected.extend(project_findings)
        report.suppressed += project_suppressed

    report.findings = fingerprinted(collected)
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        cache.store_state(
            root,
            zone_tag,
            {
                "files": keys,
                "findings": [f.to_payload() for f in report.findings],
                "files_scanned": report.files_scanned,
                "suppressed": report.suppressed,
            },
        )
    return report
