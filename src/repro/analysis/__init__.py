"""repro-lint: AST-based enforcement of the repo's core invariants.

The properties this reproduction actually stands on — bit-identical
results across serial/process/distributed backends, seeded-only
randomness, monotonic-only lease clocks, registry names resolvable in
remote workers — are exactly the ones no single test can fully cover.
This subsystem turns each of those (and each past bug class, like the
PR 6 lease clock-skew fix) into a machine-checked rule.

Architecture
------------
* :mod:`repro.analysis.zones` — the zone map: files belong to a
  ``deterministic``, ``distributed``, or ``free`` enforcement zone.
* :mod:`repro.analysis.rulebase` — the :class:`Rule` and
  :class:`ProjectRule` base classes and the :class:`FileContext` a
  per-file rule sees.
* :mod:`repro.analysis.rules` — the fixed rule set: ``FILE_RULES``
  (``no-wallclock``, ``seeded-rng``, ``lease-clock``,
  ``serialization-safety``, ``telemetry-side-channel``) and
  ``PROJECT_RULES`` (``transitive-wallclock``, ``transitive-rng``).
* :mod:`repro.analysis.symbols` / :mod:`~repro.analysis.callgraph` /
  :mod:`~repro.analysis.dataflow` — the interprocedural layer: per-file
  module summaries, the registry-aware project call graph, and the
  determinism-taint analysis over it.
* :mod:`repro.analysis.engine` — one parse per file, zone-matched rule
  dispatch, statement-span ``# repro-lint: ignore[rule] -- reason``
  pragmas (the only waiver), and the project pass.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` (wired into
  ``make lint`` and CI).
"""

from repro.analysis.callgraph import CallGraph, Edge
from repro.analysis.dataflow import ProjectContext
from repro.analysis.engine import (
    AnalysisReport,
    analyze_paths,
    analyze_source,
    build_waivers,
    iter_python_files,
)
from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, ProjectRule, Rule
from repro.analysis.rules import FILE_RULES, PROJECT_RULES
from repro.analysis.symbols import (
    ModuleSummary,
    SymbolTable,
    module_name,
    summarize_module,
)
from repro.analysis.zones import ZONE_MAP, Zone, zone_for

__all__ = [
    "AnalysisReport",
    "CallGraph",
    "Edge",
    "FILE_RULES",
    "FileContext",
    "Finding",
    "ModuleSummary",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "SymbolTable",
    "ZONE_MAP",
    "Zone",
    "analyze_paths",
    "analyze_source",
    "build_waivers",
    "iter_python_files",
    "module_name",
    "summarize_module",
    "zone_for",
]
