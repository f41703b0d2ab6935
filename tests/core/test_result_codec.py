"""The columnar result codec: ``ColocationResult`` pickles losslessly.

A result pickles as one payload (:meth:`ColocationResult.__reduce__`):
the float epoch columns in one buffer, the int columns in another, every
interval field as a plain list and every app outcome as a tuple.  A round
trip must keep the structural digest, every array's dtype and shape, and
give arrays that are C-contiguous, writeable and own their data.  A
damaged payload must fail loudly, and a field added to any of the four
result dataclasses must travel with the rest.  A rebuilt result keeps
its interval columns until ``intervals`` is first read: a cache hit,
its metrics and a re-pickle build no records.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runtime
from repro.core.monitor import IntervalObservation
from repro.core.runtime import AppOutcome, ColocationResult, IntervalRecord
from repro.experiment.resultset import METRICS
from repro.server.platform import registered_platforms
from repro.sweep import (
    ProcessBackend,
    Scenario,
    SweepCache,
    SweepEngine,
    registered_policies,
    run_scenario,
)
from repro.sweep.cache import FORMAT_VERSION
from repro.sweep.digest import result_digest
from tests.conftest import FAST_APPS
from tests.golden.panel import LOADGENS

#: The policies registered when the sweep package loads; tests that
#: register their own restore the registry afterwards.
POLICIES = registered_policies()

#: Kwargs the builders of some policies need.
POLICY_KWARGS = {"static-level": lambda apps: (("levels", ((apps[0], 1),)),)}


@st.composite
def scenarios(draw) -> Scenario:
    apps = tuple(
        draw(st.lists(st.sampled_from(FAST_APPS), min_size=1, max_size=2, unique=True))
    )
    policy = draw(st.sampled_from(POLICIES))
    shape = draw(st.sampled_from(tuple(LOADGENS)))
    return Scenario(
        service=draw(st.sampled_from(("nginx", "memcached", "mongodb"))),
        apps=apps,
        policy=policy,
        policy_kwargs=POLICY_KWARGS.get(policy, lambda apps: ())(apps),
        seed=draw(st.integers(0, 3)),
        horizon=draw(st.sampled_from((0.05, 3.0, 30.0))),
        platform=draw(st.sampled_from(registered_platforms())),
        loadgen_shape=shape,
        loadgen_params=LOADGENS[shape],
    )


def _arrays(result: ColocationResult) -> dict[str, np.ndarray]:
    arrays = {
        "epoch_times": result.epoch_times,
        "epoch_p99": result.epoch_p99,
        "epoch_service_cores": result.epoch_service_cores,
    }
    for name, column in result.epoch_app_levels.items():
        arrays[f"levels/{name}"] = column
    for name, column in result.epoch_app_cores.items():
        arrays[f"cores/{name}"] = column
    return arrays


def _round_trip(result, protocol=pickle.HIGHEST_PROTOCOL):
    return pickle.loads(pickle.dumps(result, protocol=protocol))


@pytest.fixture(scope="module")
def result() -> ColocationResult:
    return run_scenario(
        Scenario(
            service="memcached",
            apps=("kmeans", "raytrace"),
            seed=7,
            loadgen_shape="diurnal",
            loadgen_params=LOADGENS["diurnal"],
        )
    )


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), protocol=st.sampled_from((2, 4, pickle.HIGHEST_PROTOCOL)))
def test_round_trip_keeps_every_bit(scenario, protocol):
    result = run_scenario(scenario)
    clone = _round_trip(result, protocol)
    assert result_digest(clone) == result_digest(result)
    before, after = _arrays(result), _arrays(clone)
    assert list(after) == list(before)
    for name, array in after.items():
        assert array.dtype == before[name].dtype, name
        assert array.shape == before[name].shape, name
        assert array.flags.c_contiguous, name
        assert array.flags.writeable, name
        assert array.flags.owndata, name


def test_results_compare_by_identity(result):
    """Two distinct results are unequal, even bit-identical ones: their
    contents compare through ``result_digest``, not ``==``."""
    clone = _round_trip(result)
    assert len(result.epoch_times) > 1
    assert result == result
    assert (result == clone) is False
    assert result != clone
    assert result_digest(clone) == result_digest(result)


def test_records_are_slotted(result):
    clone = _round_trip(result)
    for record in (clone.intervals[0], clone.intervals[0].observation, clone.apps[0]):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_observation_stays_frozen(result):
    clone = _round_trip(result)
    with pytest.raises(dataclasses.FrozenInstanceError):
        clone.intervals[0].observation.p99 = 0.0


def _bad_payload(result, change):
    """An object that pickles as ``result``'s payload with ``change``
    applied to its argument list."""
    rebuild, args = result.__reduce__()
    args = list(args)
    change(args)

    class Payload:
        def __reduce__(self):
            return rebuild, tuple(args)

    return Payload()


#: Argument positions in the payload (see ``ColocationResult.__reduce__``).
FLOATS, INTS, INTERVALS = 5, 7, 8


def _ragged(args):
    """Cut five values off two of the interval columns."""
    args[INTERVALS] = [
        column[:-5] if i in (1, 3) else column for i, column in enumerate(args[INTERVALS])
    ]


@pytest.mark.parametrize(
    "change",
    [
        lambda args: args.__setitem__(FLOATS, args[FLOATS][:-8]),
        lambda args: args.__setitem__(INTS, args[INTS] + args[INTS][:8]),
        lambda args: args.__setitem__(INTS, args[INTS][:-3]),
        lambda args: args.__setitem__(3, args[3] + 1),
        lambda args: args.__setitem__(1, args[1] + ("ghost",)),
        _ragged,
        lambda args: args.__setitem__(INTERVALS, args[INTERVALS][:-1]),
    ],
    ids=[
        "short-floats",
        "long-ints",
        "ragged-ints",
        "wrong-length",
        "extra-column",
        "ragged-intervals",
        "missing-interval-column",
    ],
)
def test_inconsistent_payload_raises_value_error(result, change):
    blob = pickle.dumps(_bad_payload(result, change))
    with pytest.raises(ValueError):
        pickle.loads(blob)


def test_mixed_column_dtypes_do_not_pack(result):
    odd = dataclasses.replace(
        result, epoch_service_cores=result.epoch_service_cores.astype(np.int32)
    )
    with pytest.raises(ValueError, match="cannot pack"):
        pickle.dumps(odd)


class TestCacheReadsOfDamagedEntries:
    """A damaged entry is deleted and reported as a miss."""

    @pytest.fixture()
    def cache(self, tmp_path):
        return SweepCache(tmp_path)

    def _key(self, cache):
        return cache.key(Scenario(service="memcached", apps=("kmeans",)))

    def test_truncated_entry(self, cache, result):
        key = self._key(cache)
        cache.put(key, result)
        path = cache.path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.misses == 1

    def test_length_inconsistent_entry(self, cache, result):
        key = self._key(cache)
        damaged = _bad_payload(result, lambda args: args.__setitem__(FLOATS, args[FLOATS][:-8]))
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"format": FORMAT_VERSION, "result": damaged}))
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.misses == 1

    def test_ragged_interval_columns(self, cache, result):
        key = self._key(cache)
        damaged = _bad_payload(result, _ragged)
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"format": FORMAT_VERSION, "result": damaged}))
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.misses == 1

    def test_intact_entry_hits(self, cache, result):
        key = self._key(cache)
        cache.put(key, result)
        assert result_digest(cache.get(key)) == result_digest(result)
        assert cache.hits == 1


def format1_pickle(value) -> bytes:
    """``value`` pickled as before the columnar codec: every result
    dataclass as its class plus a dict of its fields."""

    class Format1Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) in (ColocationResult, IntervalRecord, IntervalObservation, AppOutcome):
                state = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
                return copyreg.__newobj__, (type(obj),), state
            return NotImplemented

    buffer = io.BytesIO()
    Format1Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return buffer.getvalue()


def test_format1_entry_is_a_miss(tmp_path, result):
    cache = SweepCache(tmp_path)
    key = cache.key(Scenario(service="memcached", apps=("kmeans",)))
    path = cache.path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(format1_pickle({"format": FORMAT_VERSION, "result": result}))
    assert cache.get(key) is None
    assert not path.exists()


def _perturbed(value):
    """``value`` with every leaf changed, through dataclass fields and
    containers, keeping types, dtypes and lengths."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 7
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "~"
    if value is None:
        return 1.25
    if isinstance(value, np.ndarray):
        return value + 1
    if isinstance(value, list):
        return [_perturbed(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_perturbed(item) for item in value)
    if isinstance(value, dict):
        return {key: _perturbed(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(
            value,
            **{f.name: _perturbed(getattr(value, f.name)) for f in dataclasses.fields(value)},
        )
    raise TypeError(f"teach _perturbed about {type(value).__qualname__}")


@pytest.mark.parametrize(
    "cls", [ColocationResult, IntervalRecord, IntervalObservation, AppOutcome],
    ids=lambda cls: cls.__name__,
)
def test_every_field_travels(result, cls):
    """Guard: every field of the four result dataclasses is carried.

    Each field is set away from the value a run (and its default) gives
    it, so a field the codec drops comes back different.
    """
    changed = _perturbed(result)
    clone = _round_trip(changed)
    pairs = {
        ColocationResult: [(changed, clone)],
        IntervalRecord: list(zip(changed.intervals, clone.intervals)),
        IntervalObservation: [
            (a.observation, b.observation) for a, b in zip(changed.intervals, clone.intervals)
        ],
        AppOutcome: list(zip(changed.apps, clone.apps)),
    }[cls]
    assert pairs
    for original, copy in pairs:
        for field in dataclasses.fields(cls):
            expected = getattr(original, field.name)
            if field.default is not dataclasses.MISSING:
                assert expected != field.default, field.name
            assert result_digest(getattr(copy, field.name)) == result_digest(expected), (
                f"{cls.__name__}.{field.name} did not survive a pickle round trip"
            )


def test_result_without_epochs_round_trips(result):
    """No epochs: ``np.asarray([])`` makes every column float64."""
    empty = np.asarray([])
    bare = dataclasses.replace(
        result,
        epoch_times=empty,
        epoch_p99=empty,
        epoch_service_cores=empty,
        epoch_app_levels={name: empty for name in result.epoch_app_levels},
        epoch_app_cores={name: empty for name in result.epoch_app_cores},
        intervals=[],
    )
    clone = _round_trip(bare)
    assert result_digest(clone) == result_digest(bare)
    assert clone.epoch_service_cores.dtype == np.float64


def _decoded(result) -> bool:
    return "intervals" in vars(result)


@pytest.fixture()
def decodes(monkeypatch):
    """Counts the decodes of interval columns into records."""
    calls = []
    decode = runtime._interval_records

    def spy(columns):
        calls.append(len(columns[0]))
        return decode(columns)

    monkeypatch.setattr(runtime, "_interval_records", spy)
    return calls


class TestLazyIntervals:
    """A rebuilt result builds its interval records on the first read."""

    def test_warm_engine_run_builds_no_records(self, tmp_path):
        scenarios = [Scenario(service="nginx", apps=("kmeans",), seed=seed) for seed in (0, 1)]
        SweepEngine(workers=1, cache=SweepCache(tmp_path)).run(scenarios)
        warm = SweepEngine(workers=1, cache=SweepCache(tmp_path)).run(scenarios)
        assert all(o.from_cache for o in warm)
        assert not any(_decoded(o.result) for o in warm)

    def test_first_read_decodes_once(self, result, decodes):
        clone = _round_trip(result)
        intervals = clone.intervals
        assert len(decodes) == 1
        assert clone.intervals is intervals
        assert "_interval_columns" not in vars(clone)
        assert decodes == [len(intervals)] == [len(result.intervals)]
        assert result_digest(intervals) == result_digest(result.intervals)

    def test_concurrent_first_reads_share_one_list(self, result):
        clones = [_round_trip(result) for _ in range(50)]
        start = threading.Barrier(2)
        seen = [[], []]

        def read(into):
            start.wait()
            into.extend(clone.intervals for clone in clones)

        threads = [threading.Thread(target=read, args=(into,)) for into in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(a is b for a, b in zip(*seen))
        assert len(seen[0]) == len(clones)

    def test_undecoded_result_repickles_without_decoding(self, result, decodes):
        clone = _round_trip(result)
        copy = _round_trip(clone)
        assert decodes == []
        assert not _decoded(clone) and not _decoded(copy)
        assert result_digest(copy) == result_digest(result)

    def test_field_views_see_the_records(self, result):
        assert repr(_round_trip(result)) == repr(result)
        assert result_digest(dataclasses.replace(_round_trip(result))) == result_digest(result)
        assert [(f.name, f.default) for f in dataclasses.fields(ColocationResult)] == [
            (name, dataclasses.MISSING)
            for name in (
                "service_name",
                "policy_name",
                "qos",
                "epoch_times",
                "epoch_p99",
                "epoch_service_cores",
                "epoch_app_levels",
                "epoch_app_cores",
                "intervals",
                "apps",
                "offered_qps",
            )
        ] + [("warmup_seconds", 3.0)]

    def test_other_missing_attributes_still_raise(self, result):
        clone = _round_trip(result)
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            clone.nothing
        assert not hasattr(clone, "_interval_records")
        assert not _decoded(clone)

    def test_qos_met_fraction_reads_the_columns(self, result):
        # Per-interval QoS that differs from the result's, meeting it in
        # every third interval only.
        mixed = dataclasses.replace(
            result,
            intervals=[
                dataclasses.replace(
                    record,
                    observation=dataclasses.replace(
                        record.observation,
                        qos=record.observation.p99 * (2.0 if i % 3 == 0 else 0.5),
                    ),
                )
                for i, record in enumerate(result.intervals)
            ],
        )
        expected = sum(1 for i in range(len(result.intervals)) if i % 3 == 0)
        bare = dataclasses.replace(result, intervals=[])
        for fresh in (result, _perturbed(result), mixed, bare):
            clone = _round_trip(fresh)
            undecoded = clone.qos_met_fraction()
            assert not _decoded(clone)
            clone.intervals
            assert undecoded == clone.qos_met_fraction() == fresh.qos_met_fraction()
        assert mixed.qos_met_fraction() == expected / len(result.intervals) < 1.0
        assert bare.qos_met_fraction() == 1.0

    def test_cache_hit_and_its_metrics_build_no_records(self, tmp_path, result):
        cache = SweepCache(tmp_path)
        key = cache.key(Scenario(service="memcached", apps=("kmeans",)))
        cache.put(key, result)
        hit = cache.get(key)
        assert not _decoded(hit)
        for name, projection in METRICS.items():
            assert projection(hit) == projection(result), name
            assert not _decoded(hit), name

    def test_process_backend_write_back_decodes_nothing(self, tmp_path, decodes):
        scenarios = [Scenario(service="nginx", apps=("kmeans",), seed=seed) for seed in (0, 1)]
        cache = SweepCache(tmp_path)
        outcomes = SweepEngine(cache=cache, backend=ProcessBackend(2)).run(scenarios)
        assert decodes == []
        assert not any(o.from_cache or _decoded(o.result) for o in outcomes)
        for scenario in scenarios:
            assert result_digest(cache.get(cache.key(scenario))) == result_digest(
                run_scenario(scenario)
            )
