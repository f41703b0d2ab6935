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
* :mod:`repro.analysis.rulebase` — the :class:`Rule` base class and the
  :class:`FileContext` a rule sees.
* :mod:`repro.analysis.rules` — the fixed rule set ``FILE_RULES``:
  ``free-zone-import``, ``lease-clock``, ``no-wallclock``,
  ``seeded-rng``, ``serialization-safety`` and
  ``telemetry-side-channel``.  ``free-zone-import`` draws the
  deterministic zone's boundary at the import: a deterministic module
  may import only ``repro.telemetry.get_recorder`` from the free zone,
  so no clock or draw there can reach a result through calls.
* :mod:`repro.analysis.engine` — one parse per file, zone-matched rule
  dispatch, and statement-span ``# repro-lint: ignore[rule] -- reason``
  pragmas (the only waiver).
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` (wired into
  ``make lint`` and CI).

``scripts/guard_matrix.py`` measures what this rule set catches next to
the dynamic guards (golden digests, kernel contract, parity tests,
``make perfbench-check``).
"""

from repro.analysis.engine import (
    AnalysisReport,
    analyze_paths,
    analyze_source,
    build_waivers,
    iter_python_files,
)
from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, Rule
from repro.analysis.rules import FILE_RULES
from repro.analysis.zones import ZONE_MAP, Zone, zone_for

__all__ = [
    "AnalysisReport",
    "FILE_RULES",
    "FileContext",
    "Finding",
    "Rule",
    "ZONE_MAP",
    "Zone",
    "analyze_paths",
    "analyze_source",
    "build_waivers",
    "iter_python_files",
    "zone_for",
]
