#!/usr/bin/env python3
"""Digest gate: every result of a short warm-replay run matches its pin.

    python scripts/perfbench_check.py

Runs ``perfbench/run.py --workload warm-replay --seconds 1`` twice, the
second time with ``--trace 1``, prints their output, and exits non-zero
unless the last line of each is JSON with ``"correct": true``.
Warm-replay's set-up runs all 216 Fig. 5 and diurnal scenarios of the
benchmark, so every digest in ``perfbench/reference.json`` is checked.
The traced run wraps every layer function the per-layer metrics are named
after, so it also fails when one of them no longer exists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN = [sys.executable, "perfbench/run.py", "--workload", "warm-replay", "--seconds", "1"]


def correct(extra: list[str]) -> bool:
    """Run warm-replay with ``extra`` options; whether it reports correct."""
    proc = subprocess.run([*RUN, *extra], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        return False


def main() -> int:
    ok = True
    for extra in ([], ["--trace", "1"]):
        run_ok = correct(extra)
        label = " ".join(["warm-replay", *extra])
        print(f"perfbench-check ({label}): {'correct' if run_ok else 'FAILED'}")
        ok &= run_ok
    print(f"perfbench-check: {'correct' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
