"""Alternating parent/change pairs of one perfbench workload.

    python scripts/perfbench_pairs.py --workload diurnal-multiapp --pairs 10 --seed 1

Compares the working tree (uncommitted edits included) against a parent
revision (``--parent``, default ``HEAD``), exported with ``git archive``
into a temporary directory that is deleted afterwards; nothing is written
into ``.git``, so a killed run leaves only that directory behind
(``TMPDIR`` picks where it goes).  Before every run both
sides lose their ``__pycache__`` directories, since bytecode left by one
side (``make lint`` compiles everything) speeds up its imports and skews
``setup_s``.  Each side first does one untimed warm-up run, the working
tree's first: the first run after a ``src/`` edit explores all ladders
into ``.perfbench_state/ladders-<fingerprint>`` in-process, which
inflates that run's times and ``peak_rss_mb``.  When every file the
ladders are measured from (``repro.search.variants.LADDER_SOURCES``) is
the same in both trees, the working tree's store is copied into the
export under the export's own fingerprint, so the parent does not explore
them again (~45 s).  The pairs then alternate which side runs first.

Prints, per end-to-end metric, each side's median and quartiles and the
number of pairs the change won, and whether a gain could be claimed under
the benchmark's rule: the change wins at least nine tenths of the pairs
(ties count for neither) and the medians differ by more than the parent's
interquartile range.  A run that reports ``correct: false`` or failures
stops the script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, tree: Path) -> None:
    """Write the files of ``revision`` into the new directory ``tree``."""
    tree.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", revision], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {revision} failed")


def fingerprint(tree: Path) -> str:
    """``perfbench/run.py``'s ``source_fingerprint()`` in ``tree``: the
    name its ladder store goes by."""
    proc = subprocess.run(
        [sys.executable, "-c", "import run; print(run.source_fingerprint())"],
        cwd=tree / "perfbench",
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def tree_files(root: Path, names: tuple[str, ...]) -> dict[str, bytes]:
    """Every file below ``root`` that ``names`` hold, by relative path."""
    files = {}
    for name in names:
        path = root / name
        found = path.rglob("*") if path.is_dir() else [path]
        for file in found:
            if file.is_file() and "__pycache__" not in file.parts:
                files[file.relative_to(root).as_posix()] = file.read_bytes()
    return files


def share_ladder_store(source: Path, target: Path, sources: tuple[str, ...]) -> Path | None:
    """Copy ``source``'s ladder store into ``target`` under ``target``'s
    fingerprint when every file of ``sources`` (names below ``src/repro``)
    is byte-identical in both trees; return the new store, else ``None``.

    The store's entries are keyed by a digest of those files alone, so the
    other tree finds them all.
    """
    if tree_files(source / "src" / "repro", sources) != tree_files(
        target / "src" / "repro", sources
    ):
        return None
    store = source / ".perfbench_state" / f"ladders-{fingerprint(source)}"
    copy = target / ".perfbench_state" / f"ladders-{fingerprint(target)}"
    if not store.is_dir() or copy.exists():
        return None
    partial = copy.with_name(f"{copy.name}.partial")
    shutil.copytree(store, partial)
    partial.rename(copy)
    return copy


def clear_bytecode(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        if ".git" not in cache.parts:
            shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its metrics by name."""
    clear_bytecode(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run in {tree} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    if not report["correct"] or report["failed"]:
        sys.exit(f"run in {tree} is not correct:\n" + "\n".join(lines[:-1]))
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@dataclass(frozen=True)
class Comparison:
    """One metric over the pairs: each side's quartiles, the change's wins
    and whether a gain may be claimed."""

    name: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    claim: bool


def compare(
    pairs: list[tuple[dict, dict]], better: dict[str, str]
) -> list[Comparison]:
    """Apply the claim rule to every metric in ``better`` that the runs report.

    A pair is a win when the change is strictly better than the parent in
    the direction ``better`` names (``"lower"`` or ``"higher"``); ties count
    for neither side.  A claim needs ``ceil(0.9 * pairs)`` wins and a gap
    between the medians larger than the parent's interquartile range.
    """
    needed = math.ceil(0.9 * len(pairs))
    comparisons = []
    for name in [n for n in better if n in pairs[0][0]]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        gain = sign * (c2 - p2)
        claim = wins >= needed and gain > p3 - p1
        comparisons.append(
            Comparison(name, (p1, p2, p3), (c1, c2, c3), wins, len(pairs), claim)
        )
    return comparisons


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> None:
    print(
        f"{'metric':22s} {'parent median [q1, q3]':>32s} "
        f"{'change median [q1, q3]':>32s} {'wins':>6s}  claim"
    )
    for row in compare(pairs, better):
        p1, p2, p3 = row.parent
        c1, c2, c3 = row.change
        print(
            f"{row.name:22s} {p2:12.5g} [{p1:8.5g}, {p3:8.5g}] "
            f"{c2:12.5g} [{c1:8.5g}, {c3:8.5g}] {row.wins:3d}/{row.pairs:<2d}  "
            f"{'yes' if row.claim else 'no'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    from repro.search.variants import LADDER_SOURCES

    temp = Path(tempfile.mkdtemp(prefix="perfbench-pairs-"))
    parent_tree = temp / "parent"
    try:
        export(args.parent, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        print("warm-up: change", file=sys.stderr, flush=True)
        run_once(ROOT, args.workload, args.seed, args.seconds)
        if share_ladder_store(ROOT, parent_tree, LADDER_SOURCES):
            print("parent: ladder store copied from the working tree", file=sys.stderr)
        print("warm-up: parent", file=sys.stderr, flush=True)
        run_once(parent_tree, args.workload, args.seed, args.seconds)
        pairs = []
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            result = {}
            for side in order:
                result[side] = run_once(sides[side], args.workload, args.seed, args.seconds)
            pairs.append((result["parent"], result["change"]))
            print(
                f"pair {index + 1}/{args.pairs} ({order[0]} first): "
                + ", ".join(
                    f"{name} {result['parent'][name]:.4g} -> {result['change'][name]:.4g}"
                    for name in ("epoch_us_p50", "scenarios_per_s", "setup_s")
                    if name in result["parent"]
                ),
                file=sys.stderr,
                flush=True,
            )
    finally:
        shutil.rmtree(temp, ignore_errors=True)

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"parent={args.parent} pairs={len(pairs)} (a claim needs "
        f"{math.ceil(0.9 * len(pairs))} wins and a median gap above the parent's IQR)"
    )
    summarize(pairs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
