"""``python -m repro.analysis`` — run repro-lint from the shell.

Usage::

    # lint the default roots (src benchmarks examples scripts);
    # non-zero exit on any finding a pragma does not waive
    python -m repro.analysis

    # check one file as if it lived in a zone (fixture checking)
    python -m repro.analysis --zone deterministic bad.py

    # report paths relative to another directory
    python -m repro.analysis --root src src/repro

Exit status: ``0`` clean, ``1`` findings, ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.engine import analyze_paths
from repro.analysis.zones import Zone

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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    paths = args.paths or [p for p in DEFAULT_ROOTS if Path(p).exists()]
    if not paths:
        parser.error("no paths given and none of the default roots exist")
    zone = Zone(args.zone) if args.zone else None
    started = time.monotonic()
    report = analyze_paths(paths, root=args.root, zone=zone)
    elapsed = time.monotonic() - started

    for finding in report.findings:
        print(f"{finding.location}: {finding.rule}: {finding.message}", file=out)
        if finding.code:
            print(f"    {finding.code}", file=out)
    failed = bool(report.findings)
    status = "FAILED" if failed else "ok"
    print(
        f"repro-lint: {status} — {len(report.findings)} finding(s), "
        f"{report.suppressed} pragma-waived, {report.files_scanned} "
        f"file(s) scanned in {elapsed:.2f}s",
        file=out,
    )
    return 1 if failed else 0
