"""Import-boundary rule: deterministic code imports nothing from the free zone.

Free-zone code (telemetry, figures, the linter, the sweep CLI) reads
clocks and draws at will.  A deterministic module that imports it can
carry that nondeterminism into a result through a plain call, a
re-export, an inherited method or a registry the import fills, and the
per-file clock and RNG rules see none of those: the read happens in a
file they do not check.  So the boundary is drawn at the import.  Every
``import``/``from`` of a ``repro`` module whose file
:func:`~repro.analysis.zones.zone_for` places in the free zone is a
finding, function-local and relative imports included.

The one exception is ``repro.telemetry.get_recorder``: the recorder it
returns is write-only for deterministic code, which
``telemetry-side-channel`` enforces.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rulebase import FileContext, Rule
from repro.analysis.zones import Zone, zone_for

__all__ = ["FreeZoneImportRule"]

#: The free-zone names deterministic code may import.
ALLOWED = frozenset({"repro.telemetry.get_recorder"})


def _free(module: str) -> bool:
    """Whether ``module`` is a ``repro`` module, or package, in the free zone."""
    path = module.replace(".", "/")
    return module.startswith("repro.") and Zone.FREE in (
        zone_for(f"{path}.py"),
        zone_for(f"{path}/__init__.py"),
    )


def _base(node: ast.ImportFrom, relpath: str) -> str | None:
    """The absolute module a ``from`` import reads, if it can be known."""
    if not node.level:
        return node.module
    parts = Path(relpath).parts
    if "repro" not in parts:
        return None
    package = parts[len(parts) - 1 - parts[::-1].index("repro") : -1]
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ((node.module,) if node.module else ()))


class FreeZoneImportRule(Rule):
    """Deterministic modules import only ``get_recorder`` from the free zone."""

    id = "free-zone-import"
    zones = frozenset({Zone.DETERMINISTIC})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, _free(alias.name)) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _base(node, ctx.relpath)
                if base is None:
                    continue
                targets = [
                    (f"{base}.{alias.name}", _free(base) or _free(f"{base}.{alias.name}"))
                    for alias in node.names
                ]
            else:
                continue
            for target, free in targets:
                if free and target not in ALLOWED:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{target} is free-zone code, which may read clocks "
                        "and draw unseeded: a deterministic module may import "
                        "only repro.telemetry.get_recorder from the free zone",
                    )
