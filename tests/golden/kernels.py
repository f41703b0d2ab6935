"""The kernel panel: the hot exploration kernels pinned bit for bit.

``tests/golden/kernel_digests.json`` maps every label below to the
:func:`repro.sweep.digest.result_digest` of one kernel run's output and
its three counters.  Exploration turns exactly these numbers into
ladders, so a kernel rewrite meant to keep behaviour must keep every
digest, down to the last bit of ``work`` (float sums are not
associative: regrouping ``counters.add`` calls moves it).  A change
meant to alter a kernel re-pins with
``python scripts/pin_golden.py --reason "..."``.

The panel covers every app that the ``explore-cold`` benchmark
workload explores, at two seeds, each under precise execution and
every spec :func:`repro.search.variants.enumerate_variants` yields.
"""

from __future__ import annotations

from pathlib import Path

from repro.apps import make_app
from repro.apps.base import PRECISE_SPEC, KernelRun, VariantSpec
from repro.search.variants import enumerate_variants
from repro.sweep.digest import result_digest

KERNEL_DIGESTS_PATH = Path(__file__).with_name("kernel_digests.json")

KERNEL_APPS = ("blast", "snp", "canneal", "kmeans", "water_nsquared")
KERNEL_SEEDS = (0, 1)


def spec_label(spec: VariantSpec) -> str:
    return ",".join(f"{name}={value!r}" for name, value in spec.items()) or "precise"


def kernel_panel() -> dict[str, tuple[str, int, VariantSpec]]:
    """Every pinned kernel run as ``(app, seed, spec)``, keyed by label."""
    runs = {}
    for name in KERNEL_APPS:
        specs = [PRECISE_SPEC, *enumerate_variants(make_app(name))]
        for seed in KERNEL_SEEDS:
            for spec in specs:
                runs[f"{name}/s{seed}/{spec_label(spec)}"] = (name, seed, spec)
    return runs


def kernel_digest(run: KernelRun) -> str:
    """Digest of a run's output bytes and all three counters."""
    counters = run.counters
    return result_digest(
        (run.output, counters.work, counters.mem_traffic, counters.footprint)
    )


def run_kernel_panel() -> dict[str, str]:
    """Every kernel panel digest, keyed by label."""
    return {
        label: kernel_digest(make_app(name).run(spec, seed=seed))
        for label, (name, seed, spec) in kernel_panel().items()
    }
