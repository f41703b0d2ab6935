"""The repro-lint rule set.

The analyzer runs exactly these instances: every :data:`FILE_RULES`
entry whose zones contain a file's zone, once per file, and every
:data:`PROJECT_RULES` entry once per pass over the whole program.  A new
rule is a :class:`~repro.analysis.rulebase.Rule` (or
:class:`~repro.analysis.rulebase.ProjectRule`) subclass plus one entry
in the matching tuple.
"""

from repro.analysis.rules.clocks import LeaseClockRule, NoWallclockRule
from repro.analysis.rules.rng import SeededRngRule
from repro.analysis.rules.serialization import SerializationSafetyRule
from repro.analysis.rules.telemetry import TelemetrySideChannelRule
from repro.analysis.rules.transitive import (
    TransitiveRngRule,
    TransitiveWallclockRule,
)

__all__ = [
    "FILE_RULES",
    "LeaseClockRule",
    "NoWallclockRule",
    "PROJECT_RULES",
    "SeededRngRule",
    "SerializationSafetyRule",
    "TelemetrySideChannelRule",
    "TransitiveRngRule",
    "TransitiveWallclockRule",
]

#: Per-file rules, in id order.
FILE_RULES = (
    LeaseClockRule(),
    NoWallclockRule(),
    SeededRngRule(),
    SerializationSafetyRule(),
    TelemetrySideChannelRule(),
)

#: Whole-program rules, in id order.
PROJECT_RULES = (TransitiveRngRule(), TransitiveWallclockRule())
