"""Spec-schema-drift rule: payload classes must stay self-consistent.

The sweep cache, the experiment spec, and the distributed job spool all
revolve around one duck type: a dataclass with ``key_payload`` (content
addressing), ``to_payload``/``from_payload`` (wire round-trip), and
default-elision guards that keep old hashes stable when new axes are
added.  Adding a Scenario field without threading it through all three
methods silently produces colliding cache keys or specs that drop the
new axis on the floor — drift that no single-file rule can see, because
the invariant spans the class's fields and every payload method at once.

Checked, per class defining ``key_payload``/``to_payload``/
``from_payload`` with annotated fields:

* every field is read (transitively through ``self``-method calls) in
  ``key_payload`` and in ``to_payload``;
* every field name appears as a string key in ``from_payload``;
* every default-elision guard (``self.f != LIT``, ``== LIT``,
  ``not self.f``) in ``key_payload``'s closure compares against the
  field's actual dataclass default — a guard that disagrees with the
  default changes historical hashes.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.analysis.callgraph import ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register_rule
from repro.analysis.symbols import ClassInfo

__all__ = ["SpecSchemaDriftRule"]

_REQUIRED_METHODS = ("key_payload", "to_payload", "from_payload")

#: Literal spellings whose runtime value is falsy — what ``not self.f``
#: elision guards implicitly compare against.
_FALSY_LITERALS = frozenset(
    {"()", "[]", "{}", "''", '""', "0", "0.0", "None", "False", ""}
)


def _closure(schema: Mapping[str, dict], start: str) -> set[str]:
    """``start`` plus every method transitively reachable via ``self``."""
    reached: set[str] = set()
    frontier = [start]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in schema:
            continue
        reached.add(name)
        frontier.extend(schema[name]["self_calls"])
    return reached


def _reads(schema: Mapping[str, dict], methods: set[str]) -> set[str]:
    out: set[str] = set()
    for name in methods:
        out.update(schema[name]["self_reads"])
    return out


class SpecSchemaDriftRule(ProjectRule):
    """Fields, payload methods, and elision guards must agree."""

    id = "spec-schema-drift"
    summary = (
        "payload classes (key_payload/to_payload/from_payload) must "
        "reference every field consistently and elide only true defaults"
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for qualname in sorted(ctx.table.classes):
            summary, info = ctx.table.classes[qualname]
            yield from self._check_class(summary.relpath, qualname, info)

    def _check_class(
        self, relpath: str, qualname: str, info: ClassInfo
    ) -> Iterator[Finding]:
        schema = info.schema
        if not schema or not info.fields:
            return
        if any(method not in info.methods for method in _REQUIRED_METHODS):
            return
        field_names = [name for name, _ in info.fields]
        defaults = dict(info.fields)

        def finding(message: str) -> Finding:
            return Finding(
                rule=self.id,
                path=relpath,
                line=info.line,
                col=0,
                message=f"{qualname}: {message}",
                code=info.code,
            )

        for method in ("key_payload", "to_payload"):
            read = _reads(schema, _closure(schema, method))
            for name in field_names:
                if name not in read:
                    yield finding(
                        f"field {name!r} is never read in {method}() (or any "
                        f"method it calls) — a scenario differing only in "
                        f"{name!r} would {'hash identically' if method == 'key_payload' else 'serialize identically'}, "
                        "so the field silently doesn't exist for "
                        f"{'content addressing' if method == 'key_payload' else 'the wire format'}"
                    )

        from_keys = set()
        for method in _closure(schema, "from_payload"):
            from_keys.update(schema[method]["str_keys"])
        for name in field_names:
            if name not in from_keys:
                yield finding(
                    f"field {name!r} never appears as a payload key in "
                    "from_payload() — round-tripping drops it back to the "
                    "default, so workers would run a different scenario "
                    "than the one submitted"
                )

        for method in sorted(_closure(schema, "key_payload")):
            for guard in schema[method]["guards"]:
                field, op, literal = guard[0], guard[1], guard[2]
                if field not in defaults:
                    continue
                default = defaults[field]
                if not default:
                    yield finding(
                        f"key_payload() elides {field!r} behind a default "
                        "guard, but the field has no dataclass default — "
                        "the guard compares against nothing stable"
                    )
                elif op in ("==", "!=") and literal != default:
                    yield finding(
                        f"default-elision guard on {field!r} compares "
                        f"against {literal} but the dataclass default is "
                        f"{default} — historical content hashes shift the "
                        "moment anyone relies on the elision"
                    )
                elif op == "not" and default not in _FALSY_LITERALS:
                    yield finding(
                        f"'not self.{field}' elision guard, but the default "
                        f"{default} is truthy — default-valued scenarios "
                        "would not be elided and old hashes break"
                    )


register_rule(SpecSchemaDriftRule())
