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
* :mod:`repro.analysis.registry` — the :class:`Rule` protocol and the
  open :func:`register_rule` registry (same idiom as
  ``register_policy`` / ``register_strategy``).
* :mod:`repro.analysis.rules` — the per-file built-ins (``no-wallclock``,
  ``seeded-rng``, ``lease-clock``, ``serialization-safety``,
  ``telemetry-side-channel``) and the whole-program rules
  (``transitive-wallclock``, ``transitive-rng``).
* :mod:`repro.analysis.symbols` / :mod:`~repro.analysis.callgraph` /
  :mod:`~repro.analysis.dataflow` — the interprocedural layer: per-file
  module summaries, the registry-aware project call graph, and the
  determinism-taint analysis over it.
* :mod:`repro.analysis.engine` — one parse per file, zone-matched rule
  dispatch, statement-span ``# repro-lint: ignore[rule] -- reason``
  pragmas, and the project pass.
* :mod:`repro.analysis.baseline` — the committed, justification-carrying
  baseline of grandfathered findings; entries expire when fixed.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` (wired into
  ``make lint`` and CI with ``--strict``).
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.callgraph import CallGraph, Edge, ProjectContext
from repro.analysis.engine import (
    AnalysisReport,
    analyze_paths,
    analyze_source,
    build_waivers,
    iter_python_files,
)
from repro.analysis.findings import Finding, fingerprinted
from repro.analysis.registry import (
    PROJECT_RULE_REGISTRY,
    RULE_REGISTRY,
    FileContext,
    ProjectRule,
    Rule,
    iter_project_rules,
    iter_rules,
    register_rule,
    registered_rules,
)
from repro.analysis.symbols import (
    ModuleSummary,
    SymbolTable,
    module_name,
    summarize_module,
)
from repro.analysis.zones import ZONE_MAP, Zone, zone_for

# Importing the rules package populates the registries with the built-ins.
from repro.analysis import rules as _builtin_rules  # noqa: F401  (registration)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "Edge",
    "FileContext",
    "Finding",
    "ModuleSummary",
    "PROJECT_RULE_REGISTRY",
    "ProjectContext",
    "ProjectRule",
    "RULE_REGISTRY",
    "Rule",
    "SymbolTable",
    "ZONE_MAP",
    "Zone",
    "analyze_paths",
    "analyze_source",
    "build_waivers",
    "fingerprinted",
    "iter_project_rules",
    "iter_python_files",
    "iter_rules",
    "module_name",
    "register_rule",
    "registered_rules",
    "summarize_module",
    "zone_for",
]
