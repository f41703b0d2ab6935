#!/usr/bin/env python3
"""Mutation matrix: which determinism guard catches which planted fault.

    python scripts/guard_matrix.py        # or: make guard-matrix

Results must be a pure function of (scenario, code).  Each row below
plants one fault that breaks that contract, a clock read
(``time.perf_counter``) or an unseeded draw (``random.random``) where
the contract forbids it, in a fresh copy of the repository.  Every
guard then runs on the copy:

* ``lint``: ``python -m repro.analysis``; the cell names the rules that
  fired;
* ``golden``: ``tests/golden/`` (41 result digests, 178 kernel pins);
* ``contract``: the per-app kernel contract tests, which run every
  app's precise kernel twice and compare output and counters exactly;
* ``parity``: the telemetry on/off and serial/process/distributed
  backend parity tests;
* ``perfbench``: ``scripts/perfbench_check.py``, the digests of all 216
  benchmark scenarios.

A markdown table of the outcome goes to standard output.  The unmutated
``clean`` row must pass every guard.  The ``feeds-nothing`` row is the
control: its clock read reaches no result, so a dynamic guard that
fails on it measures something other than results.  Exit status 1 when
a row that changes a result is caught by no guard, or the clean or the
control row fails a dynamic guard.

The copies live in a temporary directory; the ladders the guards
explore are shared between rows through one exploration cache, whose
keys carry the code's digest, so a row that edits a kernel explores its
own.  About 70 s per row, 13 minutes in all, on 2 CPUs; nothing in the
repository is written.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: What is copied into each row's tree.
TREE = ("src", "tests", "scripts", "perfbench", "benchmarks", "examples", "pyproject.toml")

RUNTIME = "src/repro/core/runtime.py"
TELEMETRY = "src/repro/telemetry/__init__.py"
JITTER = "src/repro/telemetry/jitter.py"

#: The engine loop reads the latency noise once per run; every planted
#: result-changing fault in the simulator scales it by ~1e-9.
NOISE = "        noise_sigma = curve.params.noise_sigma\n"

JITTER_SOURCE = '''"""Free-zone helpers that read the clock."""

import time


def jitter():
    return 1.0 + 1e-9 * (time.perf_counter() % 1.0)


class Jittered:
    def jitter(self):
        return 1.0 + 1e-9 * (time.perf_counter() % 1.0)
'''

REGISTRY_SOURCE = '''"""Free-zone code that re-registers a policy with a random draw."""

import random

from repro.core.policy import PliantPolicy
from repro.sweep.policies import register_policy


def _pliant(sc, kw):
    slack = sc.slack_threshold * (0.5 + random.random())
    return PliantPolicy(slack_threshold=slack, seed=sc.seed, **kw)


register_policy("pliant", _pliant, overwrite=True)
'''


@dataclass(frozen=True)
class Row:
    name: str
    what: str
    #: ``(path, anchor, replacement)`` edits; an empty anchor writes a
    #: new file (or appends, when the file exists).
    edits: tuple[tuple[str, str, str], ...]
    changes_result: bool = True


def _noise(expr: str, *prelude: str) -> tuple[str, str, str]:
    """Scale the engine's noise sigma by ``expr``, after ``prelude`` lines."""
    lines = "".join(f"        {line}\n" for line in prelude)
    return (RUNTIME, NOISE, f"{lines}        noise_sigma = curve.params.noise_sigma * {expr}\n")


def _kernel(path: str, anchor: str) -> tuple[str, str, str]:
    """Scale a kernel's returned output by an unseeded draw."""
    expr = anchor.strip()[len("return ") :]
    return (
        path,
        anchor,
        f"        import random\n\n        return ({expr}) * (1.0 + 1e-9 * random.random())\n",
    )


ROWS = (
    Row("clean", "no fault", (), changes_result=False),
    Row(
        "deterministic",
        "clock read in core/runtime.py scales the latency noise",
        (_noise("(1.0 + 1e-9 * (time.perf_counter() % 1.0))", "import time"),),
    ),
    Row(
        "feeds-nothing",
        "clock read in core/runtime.py whose value is dropped (control)",
        ((RUNTIME, NOISE, "        import time\n\n        _ = time.perf_counter()\n" + NOISE),),
        changes_result=False,
    ),
    Row(
        "free-call",
        "runtime calls a free-zone helper that reads the clock",
        (
            (JITTER, "", JITTER_SOURCE),
            _noise("jitter()", "from repro.telemetry.jitter import jitter"),
        ),
    ),
    Row(
        "free-reexport",
        "the helper reached through a re-export from repro.telemetry",
        (
            (JITTER, "", JITTER_SOURCE),
            (TELEMETRY, "", "\nfrom repro.telemetry.jitter import jitter  # noqa: E402\n"),
            _noise("jitter()", "from repro.telemetry import jitter"),
        ),
    ),
    Row(
        "free-base-method",
        "runtime calls self.jitter() inherited from a free-zone base class",
        (
            (JITTER, "", JITTER_SOURCE),
            (
                RUNTIME,
                "",
                "\nfrom repro.telemetry.jitter import Jittered  # noqa: E402\n\n\n"
                "class _Noise(Jittered):\n"
                "    def scale(self):\n"
                "        return self.jitter()\n",
            ),
            _noise("_Noise().scale()"),
        ),
    ),
    Row(
        "free-registry",
        "free-zone code imported with get_recorder re-registers 'pliant' with a draw",
        (
            (JITTER, "", REGISTRY_SOURCE),
            (
                TELEMETRY,
                "            rec = _recorder\n",
                "            rec = _recorder\n"
                "        import repro.telemetry.jitter  # noqa: F401\n",
            ),
        ),
    ),
    Row(
        "app-bioperf",
        "unseeded draw scales ce's output (no kernel pin)",
        (_kernel(
            "src/repro/apps/bioperf/ce.py",
            "        return _kabsch_rmsd(chain_a[a_indices], chain_b[b_indices])\n",
        ),),
    ),
    Row(
        "app-minebench",
        "unseeded draw scales birch's output (no kernel pin)",
        (_kernel(
            "src/repro/apps/minebench/birch.py",
            "        return float(final.min(axis=1).sum())\n",
        ),),
    ),
    Row(
        "app-parsec",
        "unseeded draw scales fluidanimate's output (no kernel pin)",
        (_kernel(
            "src/repro/apps/parsec/fluidanimate.py",
            "        return pos.astype(np.float64)\n",
        ),),
    ),
)

PYTEST = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")

#: Dynamic guards: name -> command, failing (non-zero) when it catches.
DYNAMIC = {
    "golden": (*PYTEST, "tests/golden"),
    "contract": (*PYTEST, "tests/apps/test_kernels_common.py"),
    "parity": (*PYTEST, "tests/telemetry/test_parity.py", "tests/sweep/test_backends.py"),
    "perfbench": (sys.executable, "scripts/perfbench_check.py"),
}

_FINDING = re.compile(r"^\S+:\d+:\d+: ([a-z-]+): ", re.MULTILINE)

#: A planted fault must leave the program running: a row whose tree
#: cannot run one scenario and one kernel of each family would be
#: "caught" by every dynamic guard for the wrong reason.
SMOKE = (
    "from repro.apps import make_app\n"
    "from repro.sweep import Scenario, run_scenario\n"
    "run_scenario(Scenario(service='memcached', apps=('kmeans',), horizon=20.0))\n"
    "for name in ('ce', 'birch', 'fluidanimate'):\n"
    "    make_app(name).precise_run(seed=0)\n"
)


def plant(tree: Path, row: Row) -> None:
    for relpath, anchor, replacement in row.edits:
        path = tree / relpath
        if not anchor:
            text = path.read_text() if path.exists() else ""
            path.write_text(text + replacement)
            continue
        text = path.read_text()
        if text.count(anchor) != 1:
            raise SystemExit(f"{row.name}: anchor not found once in {relpath}: {anchor!r}")
        path.write_text(text.replace(anchor, replacement))


def lint(tree: Path, env: dict) -> str:
    """The rule ids repro-lint reports on ``tree``, or '' when clean."""
    proc = subprocess.run(
        (sys.executable, "-m", "repro.analysis"),
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    rules = sorted(set(_FINDING.findall(proc.stdout)))
    if proc.returncode and not rules:
        return "error"
    return ",".join(rules)


def run_row(row: Row, work: Path, exploration: Path) -> dict[str, str]:
    tree = work / row.name
    for name in TREE:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, tree / name,
                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis"),
            )
        else:
            shutil.copy2(source, tree / name)
    plant(tree, row)
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_EXPLORATION_CACHE=str(exploration),
        REPRO_SWEEP_CACHE=str(tree / ".sweeps"),
    )
    for name in ("REPRO_TELEMETRY", "REPRO_SWEEP_BACKEND", "REPRO_SWEEP_WORKERS"):
        env.pop(name, None)
    smoke = subprocess.run((sys.executable, "-c", SMOKE), cwd=tree, env=env)
    if smoke.returncode:
        raise SystemExit(f"{row.name}: the mutated tree does not run")
    cells = {"lint": lint(tree, env)}
    for guard, command in DYNAMIC.items():
        proc = subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        cells[guard] = "FAIL" if proc.returncode else "pass"
    shutil.rmtree(tree)
    return cells


def main() -> int:
    columns = ("lint", *DYNAMIC)
    print("| row | fault | changes result | " + " | ".join(columns) + " |")
    print("|---" * (3 + len(columns)) + "|")
    problems = []
    with tempfile.TemporaryDirectory(prefix="guard-matrix-") as tmp:
        work = Path(tmp)
        for row in ROWS:
            started = time.monotonic()
            cells = run_row(row, work, work / "exploration")
            caught = cells["lint"] not in ("", "error") or "FAIL" in cells.values()
            dynamic = any(cells[guard] == "FAIL" for guard in DYNAMIC)
            print(
                f"| {row.name} | {row.what} | {'yes' if row.changes_result else 'no'} | "
                + " | ".join(cells[c] or "-" for c in columns)
                + f" |  <!-- {time.monotonic() - started:.0f} s -->",
                flush=True,
            )
            if cells["lint"] == "error":
                problems.append(f"{row.name}: repro-lint crashed")
            if row.changes_result and not caught:
                problems.append(f"{row.name}: changes a result and no guard catches it")
            if not row.changes_result and dynamic:
                problems.append(f"{row.name}: changes no result but a dynamic guard fails")
            if row.name == "clean" and cells["lint"]:
                problems.append("clean: repro-lint is not clean on the unmutated tree")
    for problem in problems:
        print(f"guard-matrix: {problem}")
    print(f"guard-matrix: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
