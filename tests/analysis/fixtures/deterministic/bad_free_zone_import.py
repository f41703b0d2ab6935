"""Bad fixture: deterministic code importing from the free zone.

Expected findings: free-zone-import x3 — the figures package, a
telemetry read function next to the allowed recorder factory, and a
function-local import of the linter.
"""

import repro.viz
from repro.telemetry import get_recorder, snapshot


def lint_then_run(paths, simulate):
    from repro.analysis import analyze_paths

    with get_recorder().span("fixture.lint"):
        analyze_paths(paths)
    return simulate()
