"""ResultSet: querying, aggregation, tabular export, persistence."""

import csv
import io
import json

import pytest

from repro.experiment import (
    METRICS,
    ExperimentSpec,
    ResultSet,
    register_metric,
    run_experiment,
)

SPEC = ExperimentSpec(
    name="resultset-fixture",
    base={"service": "mongodb", "apps": "kmeans", "seed": 4, "horizon": 30.0},
    axes={
        "load_fraction": (0.5, 0.9),
        "slack_threshold": (0.05, 0.10),
    },
)


@pytest.fixture(scope="module")
def results() -> ResultSet:
    return run_experiment(SPEC, workers=1)


class TestQuerying:
    def test_grid_order_and_len(self, results):
        assert len(results) == 4
        assert [o.scenario.load_fraction for o in results] == [0.5, 0.5, 0.9, 0.9]

    def test_filter_by_axis(self, results):
        subset = results.filter(load_fraction=0.5)
        assert len(subset) == 2
        assert all(o.scenario.load_fraction == 0.5 for o in subset)

    def test_filter_accepts_app_string(self, results):
        assert len(results.filter(apps="kmeans")) == 4
        assert len(results.filter(apps=("kmeans", "canneal"))) == 0

    def test_filter_predicate(self, results):
        met = results.filter(lambda o: o.result.qos_met)
        assert all(o.result.qos_met for o in met)

    def test_filter_unknown_axis_raises(self, results):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            results.filter(nonsense=1)

    def test_filter_method_name_raises_not_matches_nothing(self, results):
        # "label" is a Scenario *method*; treating it as an axis must be
        # an error, not an always-empty filter.
        with pytest.raises(ValueError, match="unknown scenario axis"):
            results.filter(label="mongodb/kmeans")
        with pytest.raises(ValueError, match="unknown scenario axis"):
            results.group_by("config")

    def test_lookup_single(self, results):
        result = results.lookup(load_fraction=0.5, slack_threshold=0.05)
        assert result.service_name == "mongodb"

    def test_lookup_ambiguous_raises(self, results):
        with pytest.raises(LookupError, match="exactly one"):
            results.lookup(load_fraction=0.5)

    def test_group_by_single_axis(self, results):
        groups = results.group_by("load_fraction")
        assert set(groups) == {0.5, 0.9}
        assert all(len(group) == 2 for group in groups.values())

    def test_group_by_multiple_axes(self, results):
        groups = results.group_by("load_fraction", "slack_threshold")
        assert len(groups) == 4
        assert all(len(group) == 1 for group in groups.values())


class TestAggregation:
    def test_scalar_aggregate(self, results):
        mean_ratio = results.aggregate("qos_ratio")
        assert 0.0 < mean_ratio < 2.0

    def test_grouped_aggregate_tracks_load(self, results):
        by_load = results.aggregate("qos_ratio", by="load_fraction")
        assert by_load[0.5] < by_load[0.9]

    def test_reducers(self, results):
        assert results.aggregate("qos_ratio", reduce="count") == 4
        assert (
            results.aggregate("qos_ratio", reduce="min")
            <= results.aggregate("qos_ratio", reduce="median")
            <= results.aggregate("qos_ratio", reduce="max")
        )

    def test_unknown_metric_and_reducer_raise(self, results):
        with pytest.raises(ValueError, match="unknown metric"):
            results.aggregate("not_a_metric")
        with pytest.raises(ValueError, match="unknown reducer"):
            results.aggregate("qos_ratio", reduce="mode")

    def test_callable_metric(self, results):
        values = results.values(lambda r: r.offered_qps)
        assert len(values) == 4

    def test_registered_metric(self, results):
        register_metric(
            "test_epochs", lambda r: len(r.epoch_times), overwrite=True
        )
        try:
            assert all(v > 0 for v in results.values("test_epochs"))
        finally:
            METRICS.pop("test_epochs", None)


class TestExport:
    def test_records_carry_axes_provenance_metrics(self, results):
        records = results.to_records(metrics=["qos_ratio", "qos_met"])
        assert len(records) == 4
        first = records[0]
        assert first["service"] == "mongodb"
        assert first["apps"] == "kmeans"
        assert first["loadgen_shape"] == "constant"
        assert "from_cache" in first and "duration" in first
        assert "qos_ratio" in first and "qos_met" in first

    def test_default_records_include_standard_metrics(self, results):
        record = results.to_records()[0]
        for metric in METRICS:
            assert metric in record

    def test_to_json(self, results, tmp_path):
        path = tmp_path / "results.json"
        text = results.to_json(path, metrics=["qos_ratio"])
        assert json.loads(text) == json.loads(path.read_text())
        assert len(json.loads(text)) == 4

    def test_to_csv_parses_back(self, results, tmp_path):
        path = tmp_path / "results.csv"
        text = results.to_csv(path, metrics=["qos_ratio"])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4
        assert {row["load_fraction"] for row in rows} == {"0.5", "0.9"}
        assert path.read_text() == text


class TestPersistence:
    def test_save_load_bit_identical(self, results, tmp_path):
        path = results.save(tmp_path / "rs.pkl")
        loaded = ResultSet.load(path)
        assert loaded.identical(results)
        assert loaded.spec == SPEC

    def test_load_rejects_foreign_format(self, results, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        path.write_bytes(pickle.dumps({"format": 99, "outcomes": []}))
        with pytest.raises(ValueError, match="format"):
            ResultSet.load(path)

    def test_load_rejects_format1_file(self, results, tmp_path):
        """A file saved before the columnar codec does not unpickle: its
        records carry dict state that slotted classes cannot take."""
        from tests.core.test_result_codec import format1_pickle

        path = tmp_path / "format1.pkl"
        path.write_bytes(
            format1_pickle({"format": 1, "spec": None, "outcomes": results.outcomes})
        )
        with pytest.raises(ValueError, match="unsupported result-set format"):
            ResultSet.load(path)

    def test_load_rejects_a_pickle_that_is_no_envelope(self, tmp_path):
        import pickle

        path = tmp_path / "list.pkl"
        path.write_bytes(pickle.dumps([1, 2]))
        with pytest.raises(ValueError, match="unsupported result-set format None"):
            ResultSet.load(path)

    def test_load_of_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultSet.load(tmp_path / "absent.pkl")

    def test_identical_detects_differences(self, results):
        assert results.identical(results)
        truncated = ResultSet(results.outcomes[:-1])
        assert not results.identical(truncated)
