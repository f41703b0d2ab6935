"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes a whole sweep as data: a ``base``
of shared scenario fields plus named, open-ended ``axes`` — **any**
:class:`~repro.sweep.grid.Scenario` field can be an axis, including the
load-shape (``loadgen_shape``/``loadgen_params``), ``platform``,
``slack_threshold`` and ``horizon`` axes.  It is the only way a sweep
is declared.  Specs round-trip through JSON, so the same experiment
definition drives an in-process sweep, the distributed CLI
(``python -m repro.sweep submit``, from grid flags or ``--spec``), and
a saved artifact next to its results.

Expansion order is deterministic: the cross product iterates axes in
declaration order, first axis slowest, so related scenarios stay
adjacent for cache locality.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.sweep.grid import (
    _CODECS_BY_NAME,
    Scenario,
    _freeze,
    _jsonify,
    _normalize_mix,
    _same,
    scenario_field_names,
)

#: Bump when the spec JSON layout changes; old files fail loudly.
SPEC_FORMAT = 1

_PAIR_FIELDS = ("policy_kwargs", "loadgen_params")


def _normalize_value(field: str, value):
    """Freeze one field value into its canonical hashable form."""
    if field == "apps":
        return _normalize_mix(value)
    if field in _PAIR_FIELDS:
        items = value.items() if isinstance(value, dict) else value
        return tuple((str(k), _freeze(v)) for k, v in items)
    return _freeze(value)


def _as_pairs(what: str, mapping_or_pairs) -> list[tuple[str, object]]:
    if mapping_or_pairs is None:
        return []
    if isinstance(mapping_or_pairs, dict):
        pairs = list(mapping_or_pairs.items())
    else:
        try:
            pairs = [(k, v) for k, v in mapping_or_pairs]
        except (TypeError, ValueError):
            pairs = None
    if pairs is None or not all(isinstance(k, str) for k, _ in pairs):
        raise ValueError(
            f"spec {what} must map field names to values (an object or "
            f"[name, value] pairs), got {mapping_or_pairs!r}"
        )
    return pairs


#: The required fields of a scenario that :func:`_checked_value` builds
#: around the one value it checks.
_PROBE = {"service": "probe", "apps": ("probe",)}


#: The pairs of scenario fields checked together: a load generator's
#: parameters must fit its shape, and a registered policy's kwargs must
#: fit its builder.
_JOINT_FIELDS = (("loadgen_shape", "loadgen_params"), ("policy", "policy_kwargs"))
_JOINTLY_CHECKED = frozenset(itertools.chain.from_iterable(_JOINT_FIELDS))
_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


def _checked_value(field: str, value):
    """``value`` in canonical form, or a ``ValueError`` naming ``field``.

    The value is tried in a scenario of its own, except for the fields of
    :data:`_JOINT_FIELDS`, which :func:`_check_joint_fields` tries pair
    by pair.  No other scenario check involves two fields, so every point
    of a spec whose values all pass constructs (unless a registered
    policy's builder reads further fields): a malformed value fails when
    the spec is built, not when it expands.
    """
    try:
        value = _normalize_value(field, value)
        if field not in _JOINTLY_CHECKED:
            Scenario(**{**_PROBE, field: value})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"spec field {field!r} = {value!r}: {exc}") from None
    return value


def _check_joint_fields(base, axes) -> None:
    """Try every pair of values each field pair of :data:`_JOINT_FIELDS`
    can expand to, each in a scenario of its own; raise a ``ValueError``
    naming both fields at the first that does not construct."""
    choices = {field: (value,) for field, value in base}
    choices.update(axes)
    for first, second in _JOINT_FIELDS:
        for a, b in itertools.product(
            choices.get(first, (_SCENARIO_DEFAULTS[first],)),
            choices.get(second, (_SCENARIO_DEFAULTS[second],)),
        ):
            try:
                Scenario(**_PROBE, **{first: a, second: b})
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"spec fields {first!r} = {a!r}, {second!r} = {b!r}: {exc}"
                ) from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep, declared as named open axes over scenario fields.

    Parameters
    ----------
    name / description:
        Free-form labels carried through serialization.
    base:
        Scenario fields shared by every point.  ``service`` and ``apps``
        must appear in ``base`` or ``axes``.
    axes:
        Mapping (or pair sequence — order is preserved either way) from a
        scenario field name to the values it sweeps over.  ``apps`` axis
        values are app mixes: a bare string is a single-app mix, a list
        is a multi-app mix.
    strategy / budget / objective / rng_seed:
        How to *explore* the axes: a registered search strategy name
        (``grid`` — the exhaustive default — ``random``, ``halving``,
        ``pareto``, see :mod:`repro.search`), a hard ceiling on unique
        evaluations, the ``[min:|max:]metric`` objective(s) ranking
        points, and the seed every stochastic proposal derives from.
        A spec with a non-grid strategy or a budget runs as a budgeted
        search through ``run_experiment`` and the CLI alike.
    """

    # Declared in the order to_dict writes them.
    name: str = ""
    description: str = ""
    base: tuple[tuple[str, object], ...] = ()
    axes: tuple[tuple[str, tuple], ...] = ()
    strategy: str = "grid"
    budget: int | None = None
    objective: tuple[str, ...] = ()
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for label in ("name", "description"):
            if not isinstance(getattr(self, label), str):
                raise ValueError(
                    f"spec {label} must be a string, got {getattr(self, label)!r}"
                )
        known = scenario_field_names()
        base_pairs = _as_pairs("base", self.base)
        axis_pairs = _as_pairs("axes", self.axes)

        unknown = [k for k, _ in base_pairs + axis_pairs if k not in known]
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {sorted(set(unknown))} "
                f"(sweepable fields: {', '.join(sorted(known))})"
            )
        base_names = [k for k, _ in base_pairs]
        if len(base_names) != len(set(base_names)):
            raise ValueError(f"duplicate base field in {base_names}")
        axis_names = [k for k, _ in axis_pairs]
        if len(axis_names) != len(set(axis_names)):
            raise ValueError(f"duplicate axis name in {axis_names}")
        overlap = set(axis_names) & {k for k, _ in base_pairs}
        if overlap:
            raise ValueError(
                f"field(s) {sorted(overlap)} appear in both base and axes; "
                "pick one"
            )
        # Materialize axis values exactly once: a generator would be
        # exhausted by the emptiness check and silently expand to zero
        # scenarios.
        materialized = []
        for axis, values in axis_pairs:
            if isinstance(values, str) or not hasattr(values, "__iter__"):
                raise ValueError(
                    f"axis {axis!r} needs an iterable of values, "
                    f"got {values!r}"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            materialized.append((axis, values))
        axis_pairs = materialized
        declared = set(axis_names) | {k for k, _ in base_pairs}
        missing = {"service", "apps"} - declared
        if missing:
            raise ValueError(
                f"spec must declare {sorted(missing)} in base or axes"
            )

        object.__setattr__(
            self,
            "base",
            tuple((k, _checked_value(k, v)) for k, v in base_pairs),
        )
        object.__setattr__(
            self,
            "axes",
            tuple(
                (k, tuple(_checked_value(k, v) for v in values))
                for k, values in axis_pairs
            ),
        )
        _check_joint_fields(self.base, self.axes)
        self._validate_search()

    def _validate_search(self) -> None:
        """Shape-check the search fields (strategy names resolve at run time,
        and objective *metrics* stay open via ``register_metric``)."""
        if not isinstance(self.strategy, str) or not self.strategy:
            raise ValueError(
                f"strategy must be a registered strategy name, "
                f"got {self.strategy!r}"
            )
        if self.budget is not None:
            if isinstance(self.budget, bool) or not isinstance(self.budget, int):
                raise ValueError(f"budget must be an int, got {self.budget!r}")
            if self.budget < 1:
                raise ValueError(f"budget must be >= 1, got {self.budget}")
        objective = self.objective
        if isinstance(objective, str):
            objective = (objective,)
        if not isinstance(objective, (list, tuple)):
            raise ValueError(
                f"objective must be a metric string or a list of them, "
                f"got {objective!r}"
            )
        objective = tuple(objective)
        for entry in objective:
            if not isinstance(entry, str) or not entry:
                raise ValueError(
                    f"objective entries must be '[min:|max:]metric' strings, "
                    f"got {entry!r}"
                )
            mode, sep, metric = entry.partition(":")
            if sep and (mode not in ("min", "max") or not metric.strip()):
                raise ValueError(
                    f"objective {entry!r} must look like 'metric', "
                    "'min:metric' or 'max:metric'"
                )
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, int):
            raise ValueError(f"rng_seed must be an int, got {self.rng_seed!r}")
        object.__setattr__(self, "objective", objective)

    @property
    def search_requested(self) -> bool:
        """True when running this spec means a budgeted search, not a grid."""
        return self.strategy != "grid" or self.budget is not None

    # -- introspection ---------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.axes)

    def axis(self, name: str) -> tuple:
        """The declared values of one axis."""
        for axis, values in self.axes:
            if axis == name:
                return values
        raise KeyError(f"no axis named {name!r} (axes: {self.axis_names})")

    def __len__(self) -> int:
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    # -- expansion -------------------------------------------------------

    def scenarios(self) -> list[Scenario]:
        """The cross product, first declared axis varying slowest."""
        shared = dict(self.base)
        names = [k for k, _ in self.axes]
        out = []
        for combo in itertools.product(*(v for _, v in self.axes)):
            out.append(Scenario(**shared, **dict(zip(names, combo))))
        return out

    def __iter__(self):
        return iter(self.scenarios())

    # -- builders --------------------------------------------------------

    def with_base(self, **fields) -> "ExperimentSpec":
        """A copy with ``fields`` merged into (and overriding) the base."""
        merged = dict(self.base)
        merged.update(fields)
        return replace(self, base=merged)

    def with_axis(self, axis: str, values) -> "ExperimentSpec":
        """A copy with one axis appended (or replaced, keeping its slot)."""
        axes = list(self.axes)
        for index, (existing, _) in enumerate(axes):
            if existing == axis:
                axes[index] = (axis, tuple(values))
                break
        else:
            axes.append((axis, tuple(values)))
        base = dict(self.base)
        base.pop(axis, None)  # the axis now owns this field
        return replace(self, axes=axes, base=base)

    def with_search(
        self,
        strategy: str | None = None,
        budget: int | None = None,
        objective=None,
        rng_seed: int | None = None,
    ) -> "ExperimentSpec":
        """A copy with the given search fields overridden (None = keep)."""
        return replace(
            self,
            strategy=self.strategy if strategy is None else strategy,
            budget=self.budget if budget is None else budget,
            objective=self.objective if objective is None else objective,
            rng_seed=self.rng_seed if rng_seed is None else rng_seed,
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        payload = {"format": SPEC_FORMAT}
        for f in fields(self):
            value = getattr(self, f.name)
            # Search fields appear only when set, so pre-search spec files
            # and their goldens are byte-stable.
            if f.name in _SEARCH_FIELDS and value == f.default:
                continue
            payload[f.name] = _JSON_FORMS.get(f.name, _same)(value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"spec payload must be an object, got {type(payload).__name__}")
        allowed = {"format", *(f.name for f in fields(cls))}
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(
                f"unknown spec field(s): {sorted(unknown)} "
                f"(known: {', '.join(sorted(allowed))})"
            )
        version = payload.get("format", SPEC_FORMAT)
        if version != SPEC_FORMAT:
            raise ValueError(
                f"unsupported spec format {version!r} (this build reads "
                f"format {SPEC_FORMAT})"
            )
        spec = cls(**{k: v for k, v in payload.items() if k != "format"})
        # A file is held to the value types of a scenario payload, as
        # Scenario.from_payload holds a spooled scenario.
        for field, value in spec.base:
            _CODECS_BY_NAME[field].decode(value)
        for field, values in spec.axes:
            for value in values:
                _CODECS_BY_NAME[field].decode(value)
        return spec

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())


#: The fields :meth:`ExperimentSpec.to_dict` leaves out at their defaults.
_SEARCH_FIELDS = frozenset({"strategy", "budget", "objective", "rng_seed"})
#: JSON forms of the fields that are not JSON-ready as they are held.
_JSON_FORMS = {
    "base": lambda base: {k: _jsonify(v) for k, v in base},
    "axes": lambda axes: [[k, [_jsonify(v) for v in values]] for k, values in axes],
    "objective": list,
}
