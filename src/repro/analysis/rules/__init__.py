"""The repro-lint rule set.

The analyzer runs exactly these instances: every :data:`FILE_RULES`
entry whose zones contain a file's zone, once per file.  A new rule is a
:class:`~repro.analysis.rulebase.Rule` subclass plus one entry in the
tuple.
"""

from repro.analysis.rules.boundary import FreeZoneImportRule
from repro.analysis.rules.clocks import LeaseClockRule, NoWallclockRule
from repro.analysis.rules.rng import SeededRngRule
from repro.analysis.rules.serialization import SerializationSafetyRule
from repro.analysis.rules.telemetry import TelemetrySideChannelRule

__all__ = [
    "FILE_RULES",
    "FreeZoneImportRule",
    "LeaseClockRule",
    "NoWallclockRule",
    "SeededRngRule",
    "SerializationSafetyRule",
    "TelemetrySideChannelRule",
]

#: Per-file rules, in id order.
FILE_RULES = (
    FreeZoneImportRule(),
    LeaseClockRule(),
    NoWallclockRule(),
    SeededRngRule(),
    SerializationSafetyRule(),
    TelemetrySideChannelRule(),
)
