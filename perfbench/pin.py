"""Regenerate ``reference.json``, the digests every benchmark run checks.

    python3 perfbench/pin.py

Runs the 216 scenarios of ``fig5-constant`` and ``diurnal-multiapp``
cold on ``SerialBackend`` and explores the ``explore-cold`` panel into an
empty cache, then writes one digest per scenario and per panel ladder.
Re-pin only for a change meant to alter results, and say why in it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    work_dir = run.STATE / f"pin-{os.getpid()}"
    run.isolate(work_dir)
    try:
        import workloads
        from digest import digest
        from repro.apps import make_app
        from repro.search.variants import DesignSpaceExplorer
        from repro.sweep import SerialBackend, SweepEngine

        shutil.copytree(run.ensure_ladder_store(), work_dir / "exploration")
        os.environ["REPRO_EXPLORATION_CACHE"] = str(work_dir / "exploration")
        engine = SweepEngine(backend=SerialBackend())
        scenarios, epochs = {}, {}
        for name in ("fig5-constant", "diurnal-multiapp"):
            (spec,) = workloads.WORKLOADS[name].specs
            outcomes = engine.run(spec().scenarios())
            epochs[name] = sum(len(o.result.epoch_times) for o in outcomes)
            scenarios.update((workloads.label(o.scenario), digest(o.result)) for o in outcomes)
        ladders = {
            app: workloads.ladder_digest(
                DesignSpaceExplorer(make_app(app), seed=0, cache_dir=work_dir / "cold").explore()
            )
            for app in workloads.PANEL
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reference = {"epochs": epochs, "ladders": ladders, "scenarios": dict(sorted(scenarios.items()))}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"pinned {len(scenarios)} scenarios and {len(ladders)} ladders; epochs {epochs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
