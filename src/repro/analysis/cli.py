"""``python -m repro.analysis`` — run repro-lint from the shell.

Usage::

    # lint the default roots (src benchmarks examples scripts) against
    # the committed baseline; non-zero exit on any new finding
    python -m repro.analysis

    # CI gate: expired (stale) baseline entries fail too
    python -m repro.analysis --strict

    # machine-readable output
    python -m repro.analysis --format json

    # check one file as if it lived in a zone (fixture checking)
    python -m repro.analysis --zone deterministic --no-baseline bad.py

    # grandfather today's findings with a shared justification
    python -m repro.analysis --update-baseline \\
        --justification "pre-lint code, tracked for burn-down"

Exit status: ``0`` clean, ``1`` findings (or, with ``--strict``, expired
baseline entries), ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.engine import analyze_paths
from repro.analysis.registry import (
    PROJECT_RULE_REGISTRY,
    RULE_REGISTRY,
    registered_rules,
)
from repro.analysis.zones import Zone, zone_for

__all__ = ["build_parser", "main"]

#: Scanned when no paths are given: everything that carries invariants.
DEFAULT_ROOTS = ("src", "benchmarks", "examples", "scripts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: AST-based enforcement of the repo's determinism, "
            "lease-clock, and distributed-safety invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_ROOTS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on expired baseline entries (the CI mode)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (every finding reports)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline: keep matched entries, drop expired "
            "ones, add current findings under --justification"
        ),
    )
    parser.add_argument(
        "--justification",
        default="",
        help="one-line reason recorded on entries --update-baseline adds",
    )
    parser.add_argument(
        "--zone",
        choices=tuple(zone.value for zone in Zone),
        default=None,
        help="force every analyzed file into one enforcement zone",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="base directory for reported paths (default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--zone-of",
        metavar="PATH",
        default=None,
        help="print the enforcement zone of one path and exit",
    )
    return parser


def _print_rules(out) -> None:
    for rule_id in registered_rules():
        rule = RULE_REGISTRY.get(rule_id)
        if rule is not None:
            scope = ",".join(sorted(zone.value for zone in rule.zones))
        else:
            rule = PROJECT_RULE_REGISTRY[rule_id]
            scope = "project"
        print(f"{rule_id:24s} [{scope}] {rule.summary}", file=out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    if args.list_rules:
        _print_rules(out)
        return 0
    if args.zone_of is not None:
        print(zone_for(args.zone_of).value, file=out)
        return 0
    if args.update_baseline and args.no_baseline:
        parser.error("--update-baseline conflicts with --no-baseline")

    paths = args.paths or [p for p in DEFAULT_ROOTS if Path(p).exists()]
    if not paths:
        parser.error("no paths given and none of the default roots exist")
    zone = Zone(args.zone) if args.zone else None
    started = time.monotonic()
    report = analyze_paths(paths, root=args.root, zone=zone)
    elapsed = time.monotonic() - started

    baseline_path = args.baseline or Path(DEFAULT_BASELINE_NAME)
    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
    new, waived, expired = baseline.partition(report.findings)

    if args.update_baseline:
        if new and not args.justification.strip():
            parser.error(
                "--update-baseline needs --justification when it would "
                "add entries"
            )
        baseline.updated(report.findings, args.justification or "-").save(
            baseline_path
        )
        print(
            f"repro-lint: baseline {baseline_path} updated — "
            f"{len(new)} added, {len(expired)} expired, {len(waived)} kept",
            file=out,
        )
        return 0

    failed = bool(new) or (args.strict and bool(expired))
    if args.format == "json":
        payload = {
            "findings": [finding.to_payload() for finding in new],
            "waived": len(waived),
            "expired": [entry.to_payload() for entry in expired],
            "files_scanned": report.files_scanned,
            "suppressed": report.suppressed,
            "wall_time_s": round(elapsed, 3),
            "rules": list(registered_rules()),
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2), file=out)
        return 1 if failed else 0

    for finding in new:
        print(f"{finding.location}: {finding.rule}: {finding.message}", file=out)
        if finding.code:
            print(f"    {finding.code}", file=out)
        if finding.chain:
            print(f"    chain: {finding.render_chain()}", file=out)
    for entry in expired:
        print(
            f"{entry.path}: expired baseline entry {entry.fingerprint} "
            f"({entry.rule}): the finding it waived is gone — remove it "
            "with --update-baseline",
            file=out,
        )
    status = "FAILED" if failed else "ok"
    print(
        f"repro-lint: {status} — {len(new)} new finding(s), "
        f"{len(waived)} baselined, {len(expired)} expired entr(y/ies), "
        f"{report.suppressed} pragma-waived, {report.files_scanned} "
        f"file(s) scanned in {elapsed:.2f}s",
        file=out,
    )
    return 1 if failed else 0
