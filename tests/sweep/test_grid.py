"""Scenario: one colocation experiment as pure data."""

import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.core.runtime import ColocationConfig
from repro.experiment import ExperimentSpec
from repro.server.platform import registered_platforms
from repro.services.loadgen import LOADGEN_SHAPES
from repro.sweep import Scenario
from repro.sweep.engine import make_policy, registered_policies, scenario_engine


class TestScenario:
    def test_single_app_string_normalized(self):
        scenario = Scenario(service="nginx", apps="kmeans")
        assert scenario.apps == ("kmeans",)

    def test_list_mix_normalized_to_tuple(self):
        scenario = Scenario(service="nginx", apps=["kmeans", "canneal"])
        assert scenario.apps == ("kmeans", "canneal")

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            Scenario(service="nginx", apps=())

    @pytest.mark.parametrize(
        "apps", [("canneal", "canneal"), ["kmeans", "canneal", "kmeans"]]
    )
    def test_repeated_app_rejected(self, apps):
        with pytest.raises(ValueError, match="apps must not repeat an app"):
            Scenario(service="memcached", apps=apps)

    def test_spec_axis_with_a_repeated_mix(self):
        with pytest.raises(ValueError, match="'kmeans' is in .* more than once"):
            ExperimentSpec(
                base={"service": "memcached"},
                axes={"apps": (("canneal",), ("kmeans", "kmeans"))},
            )

    def test_config_round_trip(self):
        scenario = Scenario(
            service="nginx",
            apps=("kmeans",),
            load_fraction=0.6,
            decision_interval=2.0,
            monitor_epoch=0.2,
            slack_threshold=0.15,
            horizon=120.0,
            seed=9,
            stop_when_apps_done=False,
        )
        config = scenario.config()
        assert config == ColocationConfig(
            load_fraction=0.6,
            decision_interval=2.0,
            monitor_epoch=0.2,
            horizon=120.0,
            seed=9,
            stop_when_apps_done=False,
        )

    def test_hashable_and_equal_by_value(self):
        a = Scenario(service="nginx", apps=("kmeans",), seed=3)
        b = Scenario(service="nginx", apps=("kmeans",), seed=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_label_mentions_coordinates(self):
        scenario = Scenario(
            service="nginx", apps=("kmeans", "snp"), load_fraction=0.5, seed=3
        )
        label = scenario.label()
        assert "nginx" in label and "kmeans+snp" in label and "0.5" in label


class TestLoadgenParamsFailAtDeclaration:
    """Parameters that do not fit the load shape fail where the scenario
    is declared, not in the worker that builds its engine."""

    def test_shape_without_its_parameters(self):
        with pytest.raises(ValueError, match="loadgen_params.*needs a 'low' parameter"):
            Scenario("memcached", "canneal", loadgen_shape="diurnal")

    @pytest.mark.parametrize(
        "shape, params",
        [
            ("diurnal", {"low": 0.3, "high": 0.9}),
            ("bursty", {"base": 0.2, "burst": 0.9, "period": 5.0, "duration": 9.0}),
            ("step", {"steps": 5}),
            ("constant", {"fraction": 0.5, "low": 0.1}),
            ("diurnal", {"low": 0.3, "high": 0.9, "period": 20.0, "phase": math.inf}),
            ("step", {"steps": [[0.0, math.nan]]}),
            ("constant", {"fraction": 1e200}),
        ],
    )
    def test_parameters_that_do_not_fit(self, shape, params):
        with pytest.raises(ValueError, match="loadgen_params"):
            Scenario("memcached", "canneal", loadgen_shape=shape, loadgen_params=params)

    def test_fitting_parameters_construct(self):
        scenario = Scenario(
            "memcached",
            "canneal",
            loadgen_shape="diurnal",
            loadgen_params={"low": 0.3, "high": 0.9, "period": 20.0},
        )
        assert dict(scenario.loadgen_params)["period"] == 20.0

    def test_spec_axis_holding_one(self):
        with pytest.raises(ValueError, match="loadgen_params.*needs a 'low' parameter"):
            ExperimentSpec(
                base={"service": "memcached", "apps": "canneal"},
                axes={"loadgen_shape": ("constant", "diurnal")},
            )

    def test_spec_axes_checked_point_by_point(self):
        """Each parameter set must fit every shape it is crossed with."""
        with pytest.raises(ValueError, match="'bursty'"):
            ExperimentSpec(
                base={
                    "service": "memcached",
                    "apps": "canneal",
                    "loadgen_params": {"low": 0.3, "high": 0.9, "period": 20.0},
                },
                axes={"loadgen_shape": ("diurnal", "bursty")},
            )

    @pytest.mark.parametrize("fraction", ["0.5", True])
    def test_a_parameter_that_is_not_a_number(self, fraction):
        """A numeric string or a bool is not coerced: it would key apart
        from the number it runs as."""
        with pytest.raises(ValueError, match="parameter 'fraction' must be a number"):
            Scenario("memcached", "canneal", loadgen_params=(("fraction", fraction),))

    def test_ints_and_floats_construct(self):
        for fraction in (1, 0.5):
            scenario = Scenario("memcached", "canneal", loadgen_params=(("fraction", fraction),))
            assert scenario.loadgen_params == (("fraction", fraction),)


class TestPolicyKwargsFailAtDeclaration:
    """A registered policy is built where the scenario is declared, so
    kwargs its builder cannot take fail there, not in a worker."""

    def test_static_level_without_levels(self):
        with pytest.raises(ValueError, match="policy 'static-level' needs the policy kwarg 'levels'"):
            Scenario("memcached", "canneal", policy="static-level")

    def test_a_keyword_the_builder_does_not_take(self):
        with pytest.raises(ValueError, match="do not fit policy 'pliant'.*'bogus'"):
            Scenario("memcached", "canneal", policy_kwargs=(("bogus", 1),))

    def test_fitting_kwargs_construct(self):
        scenario = Scenario(
            "memcached",
            "canneal",
            policy="static-level",
            policy_kwargs=(("levels", (("canneal", 1),)),),
        )
        assert make_policy(scenario).name == "static-level"

    def test_a_policy_registered_only_in_workers_constructs(self):
        scenario = Scenario("memcached", "canneal", policy="registered-in-workers")
        assert scenario.policy == "registered-in-workers"

    def test_spec_policy_and_kwargs_checked_together(self):
        spec = ExperimentSpec(
            base={
                "service": "memcached",
                "apps": "canneal",
                "policy": "static-level",
                "policy_kwargs": {"levels": [["canneal", 1]]},
            },
        )
        assert len(spec.scenarios()) == 1
        with pytest.raises(ValueError, match="'policy' = 'static-level', 'policy_kwargs' = \\(\\)"):
            ExperimentSpec(
                base={"service": "memcached", "apps": "canneal"},
                axes={"policy": ("precise", "static-level")},
            )


# -- every scenario that constructs builds an engine -----------------------

#: The values a malformed spec or payload carries.  A load of 1e200
#: overflows the contention terms; 1e300 saturates them to infinity.
_EDGES = (0, -1.0, 1e-300, 1e200, 1e300, math.inf, -math.inf, math.nan)


@st.composite
def _numbers(draw, low=0.0, high=2.0):
    """Mostly a plausible number in ``[low, high]``, one draw in eight an
    edge value."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(_EDGES))
    return draw(st.floats(min_value=low, max_value=high))


#: The parameter pairs a shape needs in order (``low <= high``,
#: ``duration <= period``).  Drawn unordered, half of them would fail to
#: construct and be filtered out; tests/services/test_loadgen.py checks
#: that a pair out of order, or an empty step list, is refused.
_ORDERED_PARAMS = {"diurnal": ("low", "high"), "bursty": ("duration", "period")}


@st.composite
def _loadgens(draw):
    shape = draw(st.sampled_from(LOADGEN_SHAPES))
    names = {
        "constant": ("fraction",),
        "step": (),
        "diurnal": ("low", "high", "period", "phase"),
        "bursty": ("base", "burst", "period", "duration"),
    }[shape]
    values = {
        name: draw(_numbers())
        for name in names
        if name != "phase" or draw(st.booleans())
    }
    if shape in _ORDERED_PARAMS:
        first, second = _ORDERED_PARAMS[shape]
        values[first], values[second] = sorted((values[first], values[second]))
    params = list(values.items())
    if shape == "constant" and draw(st.booleans()):
        params = []
    if shape == "step":
        steps = draw(
            st.lists(st.tuples(_numbers(), _numbers()), min_size=1, max_size=3)
        )
        params = [("steps", tuple(sorted(steps)))]
    return shape, tuple(params)


@st.composite
def _scenarios(draw):
    """A scenario that constructs, over the axes a spec sweeps.

    Apps are canneal and kmeans, whose ladders tier-1 explores anyway,
    sometimes repeated (a mix that must not construct);
    ``exploration_seed`` stays 0, since every other seed explores the
    ladders afresh.
    """
    apps = draw(
        st.sampled_from(
            [("canneal",), ("kmeans",), ("canneal", "kmeans"), ("kmeans", "kmeans")]
        )
    )
    policy = draw(st.sampled_from(registered_policies()))
    # static-level reads the levels it pins from its kwargs, and declaring
    # it without them fails; the other built-in policies need none.
    kwargs = ()
    if policy == "static-level" and draw(st.booleans()):
        kwargs = (("levels", tuple((app, 1) for app in apps)),)
    shape, params = draw(_loadgens())
    try:
        return Scenario(
            service=draw(st.sampled_from(("nginx", "memcached", "mongodb"))),
            apps=apps,
            policy=policy,
            policy_kwargs=kwargs,
            load_fraction=draw(_numbers(1e-3, 1e3)),
            decision_interval=draw(_numbers(1e-3, 1e3)),
            monitor_epoch=draw(_numbers(1e-3, 1e3)),
            slack_threshold=draw(_numbers(0.0, 1.0)),
            horizon=draw(_numbers(1e-3, 1e3)),
            seed=draw(st.integers(min_value=-2**64, max_value=2**64)),
            stop_when_apps_done=draw(st.booleans()),
            loadgen_shape=shape,
            loadgen_params=params,
            platform=draw(st.sampled_from(registered_platforms())),
        )
    except ValueError:
        reject()


@settings(max_examples=150, deadline=None)
@given(_scenarios())
def test_every_scenario_that_constructs_builds_an_engine(scenario):
    scenario_engine(scenario)
