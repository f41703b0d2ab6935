"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import MeasuredVariant, VariantSpec
from repro.apps.knobs import perforated_count, perforated_indices
from repro.core.controller import PliantController
from repro.search.ladder import pareto_select
from repro.server.interference import _overload
from repro.services.latency import LatencyCurve, LatencyCurveParams


# --- perforation -----------------------------------------------------------


@given(
    n=st.integers(min_value=0, max_value=5000),
    keep=st.floats(min_value=0.001, max_value=1.0),
)
def test_perforated_indices_within_bounds(n, keep):
    idx = perforated_indices(n, keep)
    if n == 0:
        assert len(idx) == 0
    else:
        assert 1 <= len(idx) <= n
        assert idx.min() >= 0
        assert idx.max() < n
        assert len(np.unique(idx)) == len(idx)


@given(
    n=st.integers(min_value=1, max_value=5000),
    keep_a=st.floats(min_value=0.001, max_value=1.0),
    keep_b=st.floats(min_value=0.001, max_value=1.0),
)
def test_perforated_count_monotone_in_keep(n, keep_a, keep_b):
    low, high = sorted((keep_a, keep_b))
    assert perforated_count(n, low) <= perforated_count(n, high)


# --- variant specs ----------------------------------------------------------


@settings(max_examples=50)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.booleans(),
        ),
        max_size=4,
    )
)
def test_variant_spec_equality_is_order_free(settings_dict):
    a = VariantSpec(settings_dict)
    b = VariantSpec(dict(reversed(list(settings_dict.items()))))
    assert a == b
    assert hash(a) == hash(b)
    assert dict(a) == settings_dict


# --- pareto selection --------------------------------------------------------


def _variant(i, inacc, tf, rate):
    return MeasuredVariant(
        app_name="x",
        spec=VariantSpec({"k": float(i)}),
        inaccuracy_pct=inacc,
        time_factor=tf,
        traffic_rate_factor=rate,
        footprint_factor=1.0,
    )


variant_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.05, max_value=1.2),
        st.floats(min_value=0.1, max_value=1.1),
    ),
    max_size=30,
)


@given(variant_lists)
def test_pareto_selection_invariants(points):
    variants = [_variant(i, *p) for i, p in enumerate(points)]
    selected = pareto_select(variants, max_inaccuracy_pct=5.0)
    # Within budget, within the candidate set, ordered by inaccuracy, <= cap.
    assert all(v.inaccuracy_pct <= 5.0 for v in selected)
    assert len(selected) <= 8
    inaccs = [v.inaccuracy_pct for v in selected]
    assert inaccs == sorted(inaccs)
    specs = {v.spec for v in variants}
    assert all(v.spec in specs for v in selected)


@given(variant_lists)
def test_pareto_time_frontier_monotone(points):
    variants = [_variant(i, *p) for i, p in enumerate(points)]
    selected = pareto_select(variants, max_inaccuracy_pct=5.0)
    # At equal-or-higher inaccuracy, a selected point must not be strictly
    # worse in BOTH time and contention than an earlier selected point.
    for earlier, later in zip(selected, selected[1:]):
        worse_time = later.time_factor > earlier.time_factor + 1e-9
        worse_rate = (
            later.traffic_rate_factor > earlier.traffic_rate_factor + 1e-9
        )
        assert not (worse_time and worse_rate)


# --- controller state machine -----------------------------------------------


@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=-3.0, max_value=1.0)),
        max_size=60,
    ),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=200)
def test_controller_state_always_valid(steps, max_level, max_reclaimable):
    ctl = PliantController(max_level=max_level, max_reclaimable=max_reclaimable)
    for qos_met, slack in steps:
        ctl.decide(qos_met, slack)
        assert 0 <= ctl.level <= max_level
        assert 0 <= ctl.reclaimed <= max_reclaimable


@given(
    st.lists(st.floats(min_value=0.11, max_value=1.0), min_size=1, max_size=20)
)
def test_controller_relaxes_to_precise_under_sustained_slack(slacks):
    ctl = PliantController(max_level=4, max_reclaimable=3, level=4, reclaimed=3)
    for _ in range(40):
        for slack in slacks:
            ctl.decide(True, slack)
    assert ctl.level == 0
    assert ctl.reclaimed == 0


# --- latency curve -----------------------------------------------------------


@given(
    base=st.floats(min_value=1e-6, max_value=1.0),
    qos_mult=st.floats(min_value=1.5, max_value=100.0),
    u1=st.floats(min_value=0.0, max_value=2.0),
    u2=st.floats(min_value=0.0, max_value=2.0),
)
def test_latency_curve_monotone(base, qos_mult, u1, u2):
    curve = LatencyCurve(LatencyCurveParams(base_p99=base, qos=base * qos_mult))
    low, high = sorted((u1, u2))
    assert curve.p99(low) <= curve.p99(high) + 1e-12
    assert curve.p99(low) >= base - 1e-12


# --- interference -------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=3.0))
def test_overload_nonnegative_and_monotone(u):
    assert _overload(u) >= 0.0
    assert _overload(u + 0.1) >= _overload(u)

