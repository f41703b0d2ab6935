"""Bringing your own approximate application.

Implements a small Monte-Carlo option pricer as an ApproximableApp —
the three methods a user writes — explores its design space, and runs it
under Pliant next to NGINX.  This is the workflow a cloud tenant would
follow to make a new batch job Pliant-manageable.

Usage:  python examples/custom_app.py
"""

from typing import Any, Mapping

import numpy as np

from repro import units
from repro.apps.base import AppMetadata, ApproximableApp, KernelCounters
from repro.apps.knobs import Knob, LoopPerforation, PrecisionReduction
from repro.apps.quality import relative_error_pct
from repro.core import PliantPolicy, PrecisePolicy
from repro.core.runtime import ColocationConfig, ColocationEngine
from repro.search import DesignSpaceExplorer
from repro.server.resources import ResourceProfile
from repro.services import make_service
from repro.viz import format_table

_N_PATHS = 20_000
_N_STEPS = 64


class MonteCarloPricer(ApproximableApp):
    """Asian-option pricing by Monte-Carlo path simulation.

    Perforating paths is classic approximate computing: the price estimate
    degrades as 1/sqrt(paths), so large speedups cost little accuracy.
    """

    metadata = AppMetadata(
        name="mc_pricer",
        suite="custom",
        nominal_exec_time=25.0,
        parallel_fraction=0.95,
        dynrio_overhead=0.025,
        profile=ResourceProfile(
            llc_footprint_bytes=units.mb(38),
            llc_intensity=0.7,
            membw_per_core=units.gbytes_per_sec(6.0),
        ),
    )

    def knobs(self) -> dict[str, Knob]:
        return {
            "perforate_paths": LoopPerforation(
                "perforate_paths", (0.6, 0.35, 0.2, 0.1)
            ),
            "perforate_steps": LoopPerforation("perforate_steps", (0.5, 0.25)),
            "precision": PrecisionReduction("precision", ("float32",)),
        }

    def run_kernel(
        self,
        settings: Mapping[str, Any],
        counters: KernelCounters,
        rng: np.random.Generator,
    ) -> float:
        paths = max(64, int(_N_PATHS * settings["perforate_paths"]))
        steps = max(8, int(_N_STEPS * settings["perforate_steps"]))
        dtype = PrecisionReduction.dtype(settings["precision"])
        bytes_per = PrecisionReduction.bytes_per_element(settings["precision"])

        dt = 1.0 / steps
        drift = (0.03 - 0.5 * 0.2**2) * dt
        vol = 0.2 * np.sqrt(dt)
        shocks = rng.standard_normal((paths, steps)).astype(dtype)
        log_paths = np.cumsum(drift + vol * shocks.astype(np.float64), axis=1)
        prices = 100.0 * np.exp(log_paths)
        counters.add(work=float(paths * steps), traffic=float(paths * steps) * bytes_per)
        counters.note_footprint(paths * steps * bytes_per)
        payoff = np.maximum(prices.mean(axis=1) - 100.0, 0.0)
        return float(payoff.mean())

    def quality_loss(self, precise_output: float, approx_output: float) -> float:
        return relative_error_pct(
            np.asarray([approx_output]), np.asarray([precise_output])
        )


def main() -> None:
    app = MonteCarloPricer()

    print("== exploring the custom app's design space ==")
    result = DesignSpaceExplorer(app, seed=0).explore()
    for level in range(result.ladder.max_level + 1):
        v = result.ladder.variant(level)
        print(
            f"  level {level}: inaccuracy {v.inaccuracy_pct:5.2f}%  "
            f"time {v.time_factor:.2f}x  contention {v.traffic_rate_factor:.2f}x"
        )

    print("\n== colocating with NGINX ==")
    config = ColocationConfig(seed=6)
    rows = []
    for policy in (PrecisePolicy(), PliantPolicy(seed=6)):
        engine = ColocationEngine(
            service=make_service("nginx"),
            apps=[(MonteCarloPricer(), result.ladder)],
            policy=policy,
            config=config,
        )
        run = engine.run()
        outcome = run.app_outcome("mc_pricer")
        rows.append(
            [
                policy.name,
                f"{run.aggregate_p99 * 1e3:.1f}ms",
                "yes" if run.qos_met else "NO",
                f"{outcome.inaccuracy_pct:.2f}%",
                f"{outcome.finish_time:.1f}s" if outcome.finish_time else "-",
                run.max_cores_reclaimed(),
            ]
        )
    print(
        format_table(
            ["runtime", "p99", "QoS met", "price error", "finish", "cores"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
