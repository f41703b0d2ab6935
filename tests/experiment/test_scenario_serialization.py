"""Scenario serialization: round trips, strictness, and the pinned
wire payload.

The golden-payload tests pin ``to_payload()``, the form a scenario
travels in through a job spool and the payload its result key hashes.
If one of them fails, every cached result and every spooled job id
changes: accept that cache-wide cold start consciously (and say so in
the commit), or restore the old encoding.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PliantPolicy
from repro.core.runtime import ColocationConfig
from repro.sweep import Scenario, SweepCache, stable_hash

RICH = Scenario(
    service="memcached",
    apps=("canneal",),
    seed=2,
    loadgen_shape="diurnal",
    loadgen_params=(("low", 0.5), ("high", 0.95), ("period", 120.0)),
    platform="half-llc",
    slack_threshold=0.07,
)


class TestRoundTrip:
    def test_new_axes_round_trip_identity(self):
        assert Scenario.from_payload(RICH.to_payload()) == RICH

    def test_payload_is_json_safe(self):
        payload = RICH.to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_through_json_preserves_cache_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        clone = Scenario.from_payload(json.loads(json.dumps(RICH.to_payload())))
        assert cache.key(clone) == cache.key(RICH)

    def test_nested_params_freeze_to_tuples(self):
        scenario = Scenario(
            service="mongodb",
            apps=["kmeans"],
            loadgen_shape="step",
            loadgen_params=[["steps", [[0.0, 0.5], [60.0, 0.9]]]],
        )
        assert scenario.loadgen_params == (("steps", ((0.0, 0.5), (60.0, 0.9))),)
        assert hash(scenario)  # fully hashable after normalization

    def test_unknown_field_rejected(self):
        payload = RICH.to_payload()
        payload["qos_target"] = 0.001
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_payload(payload)

    def test_pre_axis_payload_still_loads(self):
        # Spool payloads written before the open axes existed carry no
        # loadgen/platform keys; they must load with the defaults.
        legacy = {
            key: value
            for key, value in Scenario(
                service="mongodb", apps=("kmeans",), seed=4
            ).to_payload().items()
            if key not in ("loadgen_shape", "loadgen_params", "platform")
        }
        scenario = Scenario.from_payload(legacy)
        assert scenario.has_default_loadgen()
        assert scenario.platform == "default"

    def test_unknown_loadgen_shape_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown loadgen shape"):
            Scenario(service="mongodb", apps=("kmeans",), loadgen_shape="sawtooth")


class TestGoldenCacheKeySchema:
    """Pins the exact wire payload (and its hash) — see module docstring."""

    def test_default_axes_payload_schema(self):
        scenario = Scenario(service="memcached", apps=("canneal",), seed=2)
        payload = scenario.to_payload()
        assert payload == {
            "service": "memcached",
            "apps": ["canneal"],
            "policy": "pliant",
            "policy_kwargs": [],
            "load_fraction": 0.775,
            "decision_interval": 1.0,
            "monitor_epoch": 0.1,
            "slack_threshold": 0.1,
            "horizon": 400.0,
            "seed": 2,
            "stop_when_apps_done": True,
            "exploration_seed": 0,
            "loadgen_shape": "constant",
            "loadgen_params": [],
            "platform": "default",
        }
        assert stable_hash(payload) == "5e1b7f00fa0892df932be9a418701380"

    def test_rich_payload_schema(self):
        payload = RICH.to_payload()
        assert payload == {
            "service": "memcached",
            "apps": ["canneal"],
            "policy": "pliant",
            "policy_kwargs": [],
            "load_fraction": 0.775,
            "decision_interval": 1.0,
            "monitor_epoch": 0.1,
            "slack_threshold": 0.07,
            "horizon": 400.0,
            "seed": 2,
            "stop_when_apps_done": True,
            "exploration_seed": 0,
            "loadgen_shape": "diurnal",
            "loadgen_params": [["low", 0.5], ["high", 0.95], ["period", 120.0]],
            "platform": "half-llc",
        }
        assert stable_hash(payload) == "ce388fa3db09596e102866afd183983b"

    def test_non_default_axes_change_the_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = Scenario(service="memcached", apps=("canneal",), seed=2)
        assert cache.key(base) != cache.key(RICH)


def _payload_with(**changes):
    payload = Scenario(service="memcached", apps=("canneal",)).to_payload()
    payload.update(changes)
    return payload


_WITHOUT_SERVICE = _payload_with()
del _WITHOUT_SERVICE["service"]


class TestMalformedPayloads:
    """A malformed spool payload fails naming the field; it never runs
    a coerced, different experiment."""

    @pytest.mark.parametrize(
        "payload,named",
        [
            pytest.param(_payload_with(apps="canneal"), "'apps'", id="apps-string"),
            pytest.param(
                _payload_with(stop_when_apps_done="false"),
                "'stop_when_apps_done'",
                id="bool-string",
            ),
            pytest.param(_payload_with(seed=2.7), "'seed'", id="fractional-seed"),
            pytest.param(_WITHOUT_SERVICE, "'service'", id="missing-service"),
            pytest.param(["service", "memcached"], "JSON object", id="not-a-dict"),
        ],
    )
    def test_rejected_with_the_field_named(self, payload, named):
        with pytest.raises(ValueError, match=named):
            Scenario.from_payload(payload)


#: Run knobs that used to run a wrong experiment or crash mid-run: a NaN or
#: negative horizon ran no epoch and reported QoS met, a NaN load ran 351
#: epochs, a zero epoch divided by zero, an infinite interval overflowed,
#: and a load of 1e200 times saturation overflowed building the engine.
MALFORMED_KNOBS = [
    ("horizon", math.nan),
    ("horizon", -1.0),
    ("horizon", 0.0),
    ("load_fraction", math.nan),
    ("load_fraction", 0.0),
    ("load_fraction", 1e200),
    ("monitor_epoch", 0.0),
    ("monitor_epoch", math.inf),
    ("decision_interval", math.inf),
    ("decision_interval", -1.0),
]


@pytest.mark.parametrize("name,value", MALFORMED_KNOBS)
class TestMalformedRunKnobs:
    """Malformed run knobs fail at construction, naming the field."""

    def test_scenario(self, name, value):
        with pytest.raises(ValueError, match=name):
            Scenario(service="memcached", apps=("canneal",), **{name: value})

    def test_payload(self, name, value):
        with pytest.raises(ValueError, match=name):
            Scenario.from_payload(_payload_with(**{name: value}))

    def test_config(self, name, value):
        with pytest.raises(ValueError, match=name):
            ColocationConfig(**{name: value})


@pytest.mark.parametrize("value", [-0.1, math.nan, 1.0, math.inf])
class TestMalformedSlackThreshold:
    """The slack threshold is a policy knob the engine config does not
    carry: the scenario holds it to PliantPolicy's range, [0, 1), so a
    value the policy would reject fails where it is declared."""

    def test_scenario(self, value):
        with pytest.raises(ValueError, match="slack_threshold"):
            Scenario(service="memcached", apps=("canneal",), slack_threshold=value)

    def test_payload(self, value):
        with pytest.raises(ValueError, match="slack_threshold"):
            Scenario.from_payload(_payload_with(slack_threshold=value))

    def test_policy_rejects_it_too(self, value):
        with pytest.raises(ValueError, match="slack_threshold"):
            PliantPolicy(slack_threshold=value)


def test_zero_slack_threshold_is_allowed():
    assert Scenario(service="memcached", apps=("canneal",), slack_threshold=0.0)
    assert PliantPolicy(slack_threshold=0.0)


def test_slack_threshold_as_a_policy_kwarg_is_rejected():
    # It has one home, the scenario field the policy builders read; a
    # kwarg copy would shadow it (or collide with it) in the builder.
    with pytest.raises(ValueError, match="Scenario.slack_threshold"):
        Scenario(
            service="memcached",
            apps=("canneal",),
            policy_kwargs=(("slack_threshold", 0.2),),
        )


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
field_names = st.sampled_from(sorted(f.name for f in dataclasses.fields(Scenario)))


@settings(max_examples=300, deadline=None)
@given(
    changes=st.dictionaries(
        field_names | st.text(max_size=6) | st.integers(), json_values, max_size=4
    ),
    dropped=st.sets(field_names, max_size=2),
)
def test_fuzzed_payload_loads_or_raises_value_error(changes, dropped):
    """Any payload either loads or raises ``ValueError``, nothing else."""
    payload = Scenario(service="memcached", apps=("canneal",)).to_payload()
    for name in dropped:
        del payload[name]
    payload.update(changes)
    try:
        scenario = Scenario.from_payload(payload)
    except ValueError:
        return
    assert Scenario.from_payload(scenario.to_payload()) == scenario


BASE = Scenario(service="memcached", apps=("canneal",))

#: One non-default value per Scenario field.  A field added to Scenario
#: must add a sample here, or every test below fails for it.
FIELD_SAMPLES = {
    "service": "mongodb",
    "apps": ("kmeans", "snp"),
    "policy": "precise",
    "policy_kwargs": (("max_backoff", 16),),
    "load_fraction": 0.6,
    "decision_interval": 2.0,
    "monitor_epoch": 0.05,
    "slack_threshold": 0.07,
    "horizon": 60.0,
    "seed": 9,
    "stop_when_apps_done": False,
    "exploration_seed": 3,
    "loadgen_shape": "step",
    "loadgen_params": (("fraction", 0.9),),
    "platform": "half-llc",
}

#: Fields a sample needs set with it to construct: a load shape other
#: than "constant" needs its parameters.
COMPANIONS = {"loadgen_shape": {"loadgen_params": (("steps", ((0.0, 0.9),)),)}}


def _varied(field) -> Scenario:
    assert field.name in FIELD_SAMPLES, (
        f"add a non-default sample for Scenario.{field.name} to FIELD_SAMPLES"
    )
    sample = FIELD_SAMPLES[field.name]
    assert sample != getattr(BASE, field.name)
    return dataclasses.replace(
        BASE, **{field.name: sample}, **COMPANIONS.get(field.name, {})
    )


@pytest.mark.parametrize(
    "field", dataclasses.fields(Scenario), ids=lambda field: field.name
)
class TestEveryFieldIsInThePayloads:
    """What the spec-schema-drift lint rule used to check, per field."""

    def test_setting_it_changes_the_cache_key(self, field, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.key(_varied(field)) != cache.key(BASE)

    def test_it_survives_a_json_round_trip(self, field):
        varied = _varied(field)
        clone = Scenario.from_payload(json.loads(json.dumps(varied.to_payload())))
        assert getattr(clone, field.name) == getattr(varied, field.name)
        assert clone == varied

    def test_it_is_in_the_hashed_payload_at_its_default(self, field):
        # Nothing is elided at its default: a change to a default is a
        # change to every key that relies on it.
        payload = BASE.to_payload()
        assert field.name in payload
        assert getattr(Scenario.from_payload(payload), field.name) == getattr(
            BASE, field.name
        )

    def test_a_payload_that_omits_it(self, field):
        payload = BASE.to_payload()
        del payload[field.name]
        if (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ):
            with pytest.raises(ValueError, match=repr(field.name)):
                Scenario.from_payload(payload)
        else:
            assert Scenario.from_payload(payload) == BASE
