"""The analyzer: parse files, run rules, honor pragmas.

One parse per file; every rule in
:data:`~repro.analysis.rules.FILE_RULES` whose zone set contains the
file's zone runs over the shared tree.

Findings can be suppressed inline with a pragma anywhere in the
*enclosing statement* (or on a comment line directly above it)::

    now = time.time()  # repro-lint: ignore[no-wallclock] -- why it's ok

Pragma scope is the statement's span, so a pragma above a decorator
waives the decorated ``def``, and one on the first line of a wrapped
call waives the whole call.  The pragma names the rule id (or ``*``);
everything after ``--`` is the justification, kept next to the code it
excuses.  Pragmas are the only waiver: a finding without one fails the
run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rulebase import FileContext
from repro.analysis.rules import FILE_RULES
from repro.analysis.zones import Zone, zone_for

__all__ = [
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "build_waivers",
    "iter_python_files",
]

_PRAGMA = re.compile(r"#\s*repro-lint:\s*ignore\[([^\]]*)\]")

#: Rule id reserved for files the parser rejects (no rule carries it — a
#: syntactically broken file can't be rule-checked at all).
PARSE_ERROR_RULE = "parse-error"


@dataclass
class AnalysisReport:
    """Everything one analyzer pass produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0  # pragma-silenced findings


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

    bare = {
        lineno: ids
        for lineno, ids in pragma_lines.items()
        if lines[lineno - 1].lstrip().startswith("#")
    }

    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start, end = _stmt_span(node)
        ids: set[str] = set()
        for lineno in range(start, end + 1):
            ids |= pragma_lines.get(lineno, frozenset())
        ids |= bare.get(start - 1, frozenset())
        if not ids:
            continue
        for lineno in range(start, end + 1):
            waivers.setdefault(lineno, set()).update(ids)
    # A pragma on a bare comment line also covers the line below it even
    # when that line starts no statement we walked (e.g. a continuation).
    for lineno, ids in bare.items():
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
    for rule in FILE_RULES:
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

    ``zone`` defaults to whatever :func:`zone_for` derives from
    ``relpath``.  Findings come back sorted.
    """
    zone = zone if zone is not None else zone_for(relpath)
    lines = tuple(source.splitlines())
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_parse_error_finding(exc, relpath, lines)]
    ctx = FileContext(relpath=relpath, zone=zone, tree=tree, lines=lines)
    kept, _ = _analyze_tree(ctx, build_waivers(tree, lines))
    return sort_findings(kept)


def analyze_paths(
    paths: Iterable[Path | str],
    root: Path | str | None = None,
    zone: Zone | None = None,
) -> AnalysisReport:
    """Analyze every Python file under ``paths``.

    ``root`` anchors the repo-relative paths used in reports (default:
    the current directory — ``make lint`` runs from the repo root).
    ``zone`` forces a single zone for every file (fixture checking); by
    default each file's zone comes from the zone map.
    """
    root = Path(root) if root is not None else Path.cwd()
    report = AnalysisReport()
    collected: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        file_zone = zone if zone is not None else zone_for(relpath)
        report.files_scanned += 1
        source = path.read_text(encoding="utf-8")
        lines = tuple(source.splitlines())
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            collected.append(_parse_error_finding(exc, relpath, lines))
            continue
        ctx = FileContext(
            relpath=relpath, zone=file_zone, tree=tree, lines=lines
        )
        kept, suppressed = _analyze_tree(ctx, build_waivers(tree, lines))
        collected.extend(kept)
        report.suppressed += suppressed

    report.findings = sort_findings(collected)
    return report
