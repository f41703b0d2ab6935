"""Sweep scenarios.

A :class:`Scenario` is one fully-specified colocation experiment — enough
information to rebuild the engine from scratch inside a worker process
(everything is plain strings/numbers, so scenarios pickle cheaply and
hash stably).  A sweep over scenarios is declared as an
:class:`~repro.experiment.ExperimentSpec`.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, Field, dataclass, fields
from typing import Any, Callable

from repro.core.runtime import ColocationConfig, check_run_knobs
from repro.services.loadgen import LOADGEN_SHAPES, loadgen_from_spec


def _normalize_mix(mix: str | tuple[str, ...] | list[str]) -> tuple[str, ...]:
    if isinstance(mix, str):
        return (mix,)
    return tuple(mix)


def _freeze(value):
    """Recursively turn lists into tuples so field values stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _freeze_pairs(pairs) -> tuple[tuple[str, object], ...]:
    """Normalize a mapping / pair sequence into frozen ``(name, value)`` pairs."""
    items = pairs.items() if isinstance(pairs, dict) else pairs
    return tuple((str(key), _freeze(value)) for key, value in items)


def _jsonify(value):
    """JSON-ready form of a frozen field value: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


@dataclass(frozen=True)
class Scenario:
    """One sweep coordinate: a colocation experiment as pure data.

    ``policy`` names a registered policy (see
    :data:`repro.sweep.engine.POLICY_REGISTRY`); ``policy_kwargs`` is a
    tuple of ``(name, value)`` pairs passed to its builder so the spec
    stays hashable and JSON-serializable.  ``slack_threshold`` is a field,
    never a policy kwarg: the builders of the slack-driven policies read
    it from here, so it has one home and sweeping it always acts.
    """

    service: str
    apps: tuple[str, ...]
    policy: str = "pliant"
    policy_kwargs: tuple[tuple[str, object], ...] = ()
    load_fraction: float = 0.775
    decision_interval: float = 1.0
    monitor_epoch: float = 0.1
    slack_threshold: float = 0.10
    horizon: float = 400.0
    seed: int = 0
    stop_when_apps_done: bool = True
    exploration_seed: int = 0
    loadgen_shape: str = "constant"
    loadgen_params: tuple[tuple[str, object], ...] = ()
    platform: str = "default"

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", _normalize_mix(self.apps))
        if not self.apps:
            raise ValueError("a scenario needs at least one approximate app")
        repeated = [app for i, app in enumerate(self.apps) if app in self.apps[:i]]
        if repeated:
            # Each app is a tenant named after it, so the engine build
            # would fail on the repeat, in a worker.
            raise ValueError(
                f"apps must not repeat an app: {repeated[0]!r} is in "
                f"{self.apps!r} more than once"
            )
        object.__setattr__(
            self, "policy_kwargs", _freeze_pairs(self.policy_kwargs)
        )
        if any(name == "slack_threshold" for name, _ in self.policy_kwargs):
            raise ValueError(
                "slack_threshold is a scenario field, not a policy kwarg: "
                "set Scenario.slack_threshold instead"
            )
        object.__setattr__(
            self, "loadgen_params", _freeze_pairs(self.loadgen_params)
        )
        if self.loadgen_shape not in LOADGEN_SHAPES:
            raise ValueError(
                f"unknown loadgen shape {self.loadgen_shape!r} "
                f"(expected one of {', '.join(LOADGEN_SHAPES)})"
            )
        if not self.has_default_loadgen():
            # Built at unit saturation, so parameters that do not fit the
            # shape fail where the scenario is declared, not in a worker.
            try:
                loadgen_from_spec(self.loadgen_shape, self.loadgen_params, 1.0)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"loadgen_params {_jsonify(self.loadgen_params)!r} do not "
                    f"fit loadgen shape {self.loadgen_shape!r}: {exc}"
                ) from None
        check_run_knobs(self)
        # PliantPolicy's range (NaN fails it too), checked here so a bad
        # value fails where the scenario is declared, not in a worker.
        value = self.slack_threshold
        if not (_is_number(value) and 0 <= value < 1):
            raise ValueError(f"slack_threshold must lie in [0, 1), got {value!r}")
        # Imported here: the engine module imports this one.
        from repro.sweep.engine import check_policy

        check_policy(self)

    def has_default_loadgen(self) -> bool:
        """True when the scenario uses the legacy constant-load default."""
        return self.loadgen_shape == "constant" and not self.loadgen_params

    def config(self) -> ColocationConfig:
        """The engine config this scenario describes."""
        return ColocationConfig(*_config_values(self))

    def to_payload(self) -> dict:
        """JSON-serializable form that :meth:`from_payload` inverts.

        This is how scenarios travel to remote workers through a job
        spool, and what a result's cache key hashes: every field is in
        it, a float as ``float(v)``, which JSON writes with ``repr``.
        ``policy_kwargs`` values must themselves be JSON-serializable
        (tuples go out as lists — registered policy builders must accept
        either).  Pinned by the golden-payload tests in
        ``tests/experiment``.
        """
        return {
            codec.name: codec.wire(value)
            for codec, value in zip(_CODECS, _field_values(self))
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_payload` output.

        Strict about keys and types: an unknown key, a missing required
        field or a value of the wrong type is a ``ValueError`` naming the
        field, never a silent coercion — a spec we can't honor must fail
        loudly, never run the wrong experiment.  Keys the payload *omits*
        keep their defaults, so pre-axis payloads load.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                "a scenario payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = payload.keys() - _SCENARIO_FIELDS
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {sorted(unknown, key=repr)} "
                f"(known: {', '.join(sorted(_SCENARIO_FIELDS))})"
            )
        kwargs = {}
        for codec in _CODECS:
            if codec.name in payload:
                kwargs[codec.name] = codec.decode(payload[codec.name])
            elif codec.default is MISSING:
                raise ValueError(
                    f"scenario payload is missing required field {codec.name!r}"
                )
        return cls(**kwargs)

    def label(self) -> str:
        """Short human-readable identifier for logs and tables."""
        apps = "+".join(self.apps)
        label = (
            f"{self.service}/{apps}/{self.policy}"
            f"@{self.load_fraction:g}/dt{self.decision_interval:g}/s{self.seed}"
        )
        if not self.has_default_loadgen():
            label += f"/{self.loadgen_shape}"
        if self.platform != "default":
            label += f"/{self.platform}"
        return label


#: Every sweepable axis name — any :class:`Scenario` field can be an
#: :class:`~repro.experiment.ExperimentSpec` axis or payload key.
_SCENARIO_FIELDS = frozenset(f.name for f in fields(Scenario))


def _same(value):
    return value


def _is_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _is_names(raw) -> bool:
    return isinstance(raw, (list, tuple)) and all(
        isinstance(item, str) for item in raw
    )


def _is_pairs(raw) -> bool:
    return isinstance(raw, (list, tuple)) and all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and isinstance(pair[0], str)
        for pair in raw
    )


#: Field annotation -> (wire form, accepted payload values, what the
#: error says was expected, decoded value).  Decoded tuples and pairs
#: are frozen by ``Scenario.__post_init__``.
_ENCODINGS: dict[str, tuple[Callable, Callable, str, Callable]] = {
    "str": (str, lambda raw: isinstance(raw, str), "a string", _same),
    "int": (int, _is_int, "an integer", _same),
    "bool": (bool, lambda raw: isinstance(raw, bool), "true or false", _same),
    "float": (float, _is_number, "a number", float),
    "tuple[str, ...]": (list, _is_names, "a list of names", _same),
    "tuple[tuple[str, object], ...]": (
        lambda pairs: [[k, _jsonify(v)] for k, v in pairs],
        _is_pairs,
        "a list of [name, value] pairs",
        _same,
    ),
}


@dataclass(frozen=True)
class _FieldCodec:
    """How one :class:`Scenario` field is sent and received."""

    name: str
    default: Any  # ``MISSING`` for required fields
    wire: Callable[[Any], Any]
    accepts: Callable[[Any], bool]
    expected: str
    decoded: Callable[[Any], Any]

    def decode(self, raw):
        if not self.accepts(raw):
            raise ValueError(
                f"scenario field {self.name!r} must be {self.expected}, "
                f"got {raw!r}"
            )
        return self.decoded(raw)


def _field_codec(f: Field) -> _FieldCodec:
    if f.type not in _ENCODINGS:
        raise TypeError(f"Scenario.{f.name}: no payload encoding for {f.type!r}")
    return _FieldCodec(f.name, f.default, *_ENCODINGS[f.type])


#: The per-field table behind to_payload/from_payload, built once from
#: the dataclass: a new field joins both automatically.
_CODECS = tuple(_field_codec(f) for f in fields(Scenario))
_CODECS_BY_NAME = {codec.name: codec for codec in _CODECS}
_field_values = operator.attrgetter(*(codec.name for codec in _CODECS))
#: The scenario fields :class:`ColocationConfig` shares by name, in its
#: positional order: what :meth:`Scenario.config` hands the engine.
_config_values = operator.attrgetter(*(f.name for f in fields(ColocationConfig)))


def scenario_field_names() -> frozenset[str]:
    """Names of every Scenario field (the open axis vocabulary)."""
    return _SCENARIO_FIELDS
