"""Self-test: the benchmark notices a slowdown and a wrong result.

    python3 perfbench/selftest.py [--seconds 10]

1. The metric names and units ``run.py`` reports are the ones
   ``BENCHMARK.json`` declares.
2. ``fig5-constant`` runs untraced, then again with
   ``ServerNode.pressure_on`` made twice as slow from outside (each call
   is followed by a busy wait as long as the call took).  ``epoch_us_p50``
   must rise by more than its bound in ``BENCHMARK.json``.
3. The traced pass runs with and without the slowdown; the layer whose
   self time per epoch grew most must be ``server.pressure_on``.
4. One result with a single perturbed float must fail the digest check,
   and the unperturbed result must pass it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
from time import perf_counter

import run


def slowed_twice(original):
    def slowed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        until = perf_counter() + (perf_counter() - start)
        while perf_counter() < until:
            pass
        return result

    return slowed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work_dir = run.STATE / f"selftest-{os.getpid()}"
    run.isolate(work_dir)
    failures = []

    def check(ok: bool, message: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {message}")
        if not ok:
            failures.append(message)

    try:
        from repro.server.node import ServerNode

        check(
            {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS,
            "end-to-end names and units match BENCHMARK.json",
        )
        check(
            {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units(),
            "per-layer names and units match BENCHMARK.json",
        )

        def measure(trace: bool, slow: bool):
            original = ServerNode.__dict__["pressure_on"]
            if slow:
                ServerNode.pressure_on = slowed_twice(original)
            bench = run.make_bench("fig5-constant", 1, work_dir / f"{trace}-{slow}")
            try:
                metrics = run.measure(bench, args.seconds, trace)
            finally:
                ServerNode.pressure_on = original
                bench.close()
            return bench, metrics

        bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "epoch_us_p50")
        _, plain = measure(trace=False, slow=False)
        _, slow = measure(trace=False, slow=True)
        growth = slow["epoch_us_p50"] / plain["epoch_us_p50"] - 1
        check(growth > bound, f"2x pressure_on raises epoch_us_p50 by {growth:.1%} (bound {bound:.0%})")

        def self_us_per_epoch(bench):
            tracer = bench.tracers["pass"]
            epochs = tracer.counts["core.epochs"]
            return {name: 1e6 * stats.self_s / epochs for name, stats in tracer.layers.items()}

        plain_bench, _ = measure(trace=True, slow=False)
        slow_bench, _ = measure(trace=True, slow=True)
        before, after = self_us_per_epoch(plain_bench), self_us_per_epoch(slow_bench)
        grown = max(after, key=lambda name: after[name] - before.get(name, 0.0))
        check(grown == "server.pressure_on", f"traced run names {grown} as the layer that grew")

        bench = run.make_bench("fig5-constant", 1, work_dir / "digest")
        bench.setup()
        outcome = bench.engine.run(bench.order[:1])[0]
        bench.close()
        bench.check_results([outcome])
        check(bench.failed == 0, "an unperturbed result passes the digest check")
        perturbed = copy.deepcopy(outcome)
        perturbed.result.epoch_p99[len(perturbed.result.epoch_p99) // 2] *= 1 + 1e-12
        bench.check_results([perturbed])
        check(bench.failed == 1, "a result with one perturbed float fails the digest check")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
