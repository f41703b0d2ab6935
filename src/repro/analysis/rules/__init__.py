"""Built-in repro-lint rules.

Importing this package populates the rule registry — each rule module
calls :func:`~repro.analysis.registry.register_rule` at import time,
exactly like the built-in policies/strategies pre-populate theirs.
Third-party rules follow the same recipe: subclass
:class:`~repro.analysis.registry.Rule`, register an instance, and make
sure the module is imported before the analyzer runs.
"""

from repro.analysis.rules.clocks import LeaseClockRule, NoWallclockRule
from repro.analysis.rules.imports import DeprecatedImportRule
from repro.analysis.rules.rng import SeededRngRule
from repro.analysis.rules.schema import SpecSchemaDriftRule
from repro.analysis.rules.serialization import SerializationSafetyRule
from repro.analysis.rules.telemetry import TelemetrySideChannelRule
from repro.analysis.rules.transitive import (
    TransitiveRngRule,
    TransitiveWallclockRule,
)

__all__ = [
    "DeprecatedImportRule",
    "LeaseClockRule",
    "NoWallclockRule",
    "SeededRngRule",
    "SerializationSafetyRule",
    "SpecSchemaDriftRule",
    "TelemetrySideChannelRule",
    "TransitiveRngRule",
    "TransitiveWallclockRule",
]
