#!/usr/bin/env python3
"""Digest gate: every result of a short warm-replay run matches its pin.

    python scripts/perfbench_check.py

Runs ``perfbench/run.py --workload warm-replay --seconds 1``, prints its
output, and exits non-zero unless the last line is JSON with
``"correct": true``.  Warm-replay's set-up runs all 216 Fig. 5 and
diurnal scenarios of the benchmark, so every digest in
``perfbench/reference.json`` is checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-replay", "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    print(proc.stdout, end="")
    lines = proc.stdout.strip().splitlines()
    try:
        correct = proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        correct = False
    print(f"perfbench-check: {'correct' if correct else 'FAILED'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
