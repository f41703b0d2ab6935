"""ExperimentSpec: validation, expansion order, JSON round trip."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment import ExperimentSpec
from repro.sweep import Scenario

BASE = {"service": "mongodb", "apps": "kmeans", "seed": 4, "horizon": 30.0}


def demo_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="demo",
        description="two open axes",
        base=BASE,
        axes={
            "load_fraction": (0.5, 0.8),
            "slack_threshold": (0.05, 0.10),
        },
    )


class TestValidation:
    def test_unknown_base_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ExperimentSpec(base={**BASE, "bogus": 1})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ExperimentSpec(base=BASE, axes={"not_an_axis": (1, 2)})

    def test_axis_and_base_conflict_rejected(self):
        with pytest.raises(ValueError, match="both base and axes"):
            ExperimentSpec(base=BASE, axes={"seed": (0, 1)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ExperimentSpec(base=BASE, axes={"load_fraction": ()})

    def test_scalar_axis_rejected(self):
        with pytest.raises(ValueError, match="iterable of values"):
            ExperimentSpec(base=BASE, axes={"load_fraction": 0.5})

    def test_generator_axis_not_exhausted(self):
        # A generator must expand like a list, not silently drain to an
        # empty axis during validation.
        spec = ExperimentSpec(
            base=BASE, axes={"load_fraction": (v / 10 for v in (4, 6, 8))}
        )
        assert len(spec) == 3
        assert spec.axis("load_fraction") == (0.4, 0.6, 0.8)

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            ExperimentSpec(
                base=BASE,
                axes=[("load_fraction", (0.5,)), ("load_fraction", (0.8,))],
            )

    def test_service_and_apps_required_somewhere(self):
        with pytest.raises(ValueError, match="service"):
            ExperimentSpec(base={"apps": "kmeans"})
        # ...but an axis declaring them is enough.
        spec = ExperimentSpec(
            base={"apps": "kmeans"}, axes={"service": ("mongodb", "nginx")}
        )
        assert len(spec) == 2


class TestExpansion:
    def test_len_is_axis_product(self):
        assert len(demo_spec()) == 4

    def test_no_axes_is_a_single_point(self):
        spec = ExperimentSpec(base=BASE)
        assert len(spec) == 1
        [scenario] = spec.scenarios()
        assert scenario == Scenario(**{**BASE, "apps": ("kmeans",)})

    def test_first_axis_varies_slowest(self):
        scenarios = demo_spec().scenarios()
        assert [s.load_fraction for s in scenarios] == [0.5, 0.5, 0.8, 0.8]
        assert [s.slack_threshold for s in scenarios] == [0.05, 0.10] * 2

    def test_any_scenario_field_is_sweepable(self):
        spec = ExperimentSpec(
            base={"service": "mongodb", "apps": "kmeans", "loadgen_shape": "diurnal"},
            axes={
                "loadgen_params": (
                    {"low": 0.3, "high": 0.8, "period": 10.0},
                    {"low": 0.5, "high": 0.9, "period": 20.0},
                ),
                "platform": ("default", "half-llc"),
                "horizon": (30.0, 60.0),
            },
        )
        assert len(spec) == 8
        lows = {dict(s.loadgen_params)["low"] for s in spec.scenarios()}
        assert lows == {0.3, 0.5}

    def test_apps_axis_mixes(self):
        spec = ExperimentSpec(
            base={"service": "mongodb"},
            axes={"apps": ("kmeans", ("kmeans", "canneal"))},
        )
        assert [s.apps for s in spec.scenarios()] == [
            ("kmeans",),
            ("kmeans", "canneal"),
        ]


class TestBuilders:
    def test_with_axis_appends_and_replaces(self):
        spec = demo_spec().with_axis("seed", (0, 1))
        assert len(spec) == 8
        replaced = spec.with_axis("seed", (7,))
        assert replaced.axis("seed") == (7,)
        assert replaced.axis_names == spec.axis_names

    def test_with_axis_takes_field_from_base(self):
        spec = demo_spec().with_axis("seed", (0, 1))
        assert all("seed" != k for k, _ in spec.base)

    def test_with_base_overrides(self):
        spec = demo_spec().with_base(seed=9)
        assert all(s.seed == 9 for s in spec.scenarios())


class TestSerialization:
    def test_json_round_trip_identity(self):
        spec = demo_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.scenarios() == spec.scenarios()

    def test_round_trip_with_rich_axes(self):
        spec = ExperimentSpec(
            base={
                "service": "memcached",
                "apps": ("canneal", "bayesian"),
                "loadgen_shape": "step",
                "loadgen_params": (("steps", ((0.0, 0.5), (60.0, 0.9))),),
                "policy_kwargs": {"max_backoff": 16},
            },
            axes={"platform": ("default", "half-llc")},
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.scenarios() == spec.scenarios()

    def test_unknown_spec_key_rejected(self):
        payload = demo_spec().to_dict()
        payload["extra"] = True
        with pytest.raises(ValueError, match="unknown spec field"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_format_rejected(self):
        payload = demo_spec().to_dict()
        payload["format"] = 99
        with pytest.raises(ValueError, match="format"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_scenario_field_in_file_rejected(self):
        payload = demo_spec().to_dict()
        payload["base"]["bogus_axis"] = 3
        with pytest.raises(ValueError, match="unknown scenario field"):
            ExperimentSpec.from_dict(payload)

    def test_save_load_file(self, tmp_path):
        spec = demo_spec()
        path = spec.save(tmp_path / "exp.json")
        assert ExperimentSpec.load(path) == spec
        # The file is plain JSON, inspectable by anything.
        assert json.loads(path.read_text())["name"] == "demo"


class TestSearchFields:
    def test_defaults_are_exhaustive_grid(self):
        spec = demo_spec()
        assert spec.strategy == "grid"
        assert spec.budget is None
        assert spec.objective == ()
        assert spec.rng_seed == 0
        assert not spec.search_requested

    def test_default_search_fields_stay_out_of_json(self):
        # Pre-search spec files and their goldens must be byte-stable.
        payload = demo_spec().to_dict()
        assert {"strategy", "budget", "objective", "rng_seed"}.isdisjoint(
            payload
        )

    def test_search_fields_round_trip(self):
        spec = demo_spec().with_search(
            strategy="halving",
            budget=32,
            objective=("max:qos_met_fraction", "min:mean_inaccuracy_pct"),
            rng_seed=7,
        )
        assert spec.search_requested
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.strategy == "halving" and clone.budget == 32

    def test_with_search_none_keeps_existing(self):
        spec = demo_spec().with_search(strategy="pareto", budget=16)
        tweaked = spec.with_search(rng_seed=5)
        assert tweaked.strategy == "pareto"
        assert tweaked.budget == 16
        assert tweaked.rng_seed == 5

    def test_single_objective_string_normalized_to_tuple(self):
        spec = demo_spec().with_search(objective="qos_met_fraction")
        assert spec.objective == ("qos_met_fraction",)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            demo_spec().with_search(budget=0)
        with pytest.raises(ValueError, match="budget"):
            ExperimentSpec(base=BASE, budget=True)

    def test_bad_objective_shape_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            demo_spec().with_search(objective=("avg:qos_met_fraction",))
        with pytest.raises(ValueError, match="objective"):
            ExperimentSpec(base=BASE, objective=(3,))

    def test_budget_alone_requests_search(self):
        assert demo_spec().with_search(budget=3).search_requested


def _demo_payload(**changes):
    payload = demo_spec().to_dict()
    payload.update(changes)
    return payload


class TestMalformedJson:
    """A malformed spec file fails to load with a ``ValueError`` naming the
    field; it never loads and then fails when it expands."""

    @pytest.mark.parametrize(
        "payload,named",
        [
            pytest.param(_demo_payload(axes=5), "axes", id="axes-scalar"),
            pytest.param(
                _demo_payload(axes=[["load_fraction", 5]]),
                "'load_fraction'",
                id="axis-values-scalar",
            ),
            pytest.param(
                _demo_payload(axes=[["apps", "kmeans"]], base={"service": "nginx"}),
                "'apps'",
                id="axis-values-string",
            ),
            pytest.param(_demo_payload(base=[1, 2]), "base", id="base-list"),
            pytest.param(
                _demo_payload(base={**BASE, "apps": 3}), "'apps'", id="apps-int"
            ),
            pytest.param(
                _demo_payload(base={**BASE, "policy_kwargs": 3}),
                "'policy_kwargs'",
                id="policy-kwargs-int",
            ),
            pytest.param(_demo_payload(objective=5), "objective", id="objective-int"),
            pytest.param(_demo_payload(rng_seed=[1]), "rng_seed", id="rng-seed-list"),
            pytest.param(_demo_payload(name=7), "name", id="name-int"),
            pytest.param(
                _demo_payload(base={**BASE, "load_fraction": "x"}),
                "'load_fraction'",
                id="load-fraction-string",
            ),
            pytest.param(
                _demo_payload(base={**BASE, "horizon": math.nan}),
                "'horizon'",
                id="horizon-nan",
            ),
            pytest.param(
                _demo_payload(axes=[["slack_threshold", [0.1, -0.1]]]),
                "'slack_threshold'",
                id="axis-value-negative",
            ),
            pytest.param(
                _demo_payload(base={**BASE, "seed": 2.5}), "'seed'", id="seed-float"
            ),
            pytest.param(
                _demo_payload(base=[["seed", 1], ["seed", 2], *BASE.items()]),
                "duplicate base field",
                id="base-duplicate",
            ),
        ],
    )
    def test_rejected_with_the_field_named(self, payload, named):
        with pytest.raises(ValueError, match=named):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_bad_run_knob_fails_when_built(self):
        with pytest.raises(ValueError, match="horizon"):
            ExperimentSpec(base={**BASE, "horizon": -1.0})


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
scenario_fields = st.sampled_from(
    sorted(f.name for f in dataclasses.fields(Scenario))
)
spec_keys = st.sampled_from(
    ["format", "name", "description", "base", "axes", "strategy", "budget",
     "objective", "rng_seed"]
)
#: Mostly numbers, the type of most scenario fields, so that many fuzzed
#: payloads get past the key checks to the value checks.
field_values = st.integers() | st.floats(allow_nan=True, allow_infinity=True) | json_values


@settings(max_examples=400, deadline=None)
@given(
    changes=st.dictionaries(spec_keys | st.just("bogus"), json_values, max_size=2),
    base_changes=st.dictionaries(
        scenario_fields | st.just("bogus"), field_values, max_size=3
    ),
    axis=st.none() | st.tuples(scenario_fields, st.lists(field_values, max_size=3)),
)
def test_fuzzed_spec_loads_or_raises_value_error(changes, base_changes, axis):
    """Any payload either loads into a spec that expands, or raises
    ``ValueError``, nothing else."""
    payload = _demo_payload()
    payload["base"].update(base_changes)
    if axis is not None:
        payload["axes"].append(list(axis))
    payload.update(changes)
    try:
        spec = ExperimentSpec.from_dict(payload)
    except ValueError:
        return
    spec.scenarios()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
