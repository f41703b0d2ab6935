"""Structural result digests and the result equality built on them."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.sweep import Scenario, results_identical, run_scenario
from repro.sweep.digest import result_digest

BASE = Scenario(service="memcached", apps=("kmeans",), horizon=5.0, seed=3)


@pytest.fixture(scope="module")
def result():
    return run_scenario(BASE)


@dataclass
class _Point:
    x: float
    tags: tuple


class TestDigest:
    def test_stable(self):
        value = {"a": [1, 2.5, None, True], "b": np.arange(3)}
        assert result_digest(value) == result_digest(
            {"a": [1, 2.5, None, True], "b": np.arange(3)}
        )
        assert len(result_digest(value)) == 16

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="unsupported type"):
            result_digest({"when": object()})

    def test_object_array_raises(self):
        with pytest.raises(TypeError, match="object arrays"):
            result_digest(np.array([object()]))

    def test_dtype_and_shape_matter(self):
        ints = np.arange(4)
        assert result_digest(ints) != result_digest(ints.astype(float))
        assert result_digest(ints) != result_digest(ints.reshape(2, 2))

    def test_types_are_not_conflated(self):
        assert result_digest(1) != result_digest(1.0)
        assert result_digest(1) != result_digest(True)
        assert result_digest([1]) != result_digest((1,))
        assert result_digest("1") != result_digest(1)

    def test_dict_order_is_part_of_the_value(self):
        assert result_digest({"a": 1, "b": 2}) != result_digest({"b": 2, "a": 1})

    def test_dataclass_fields_are_walked(self):
        assert result_digest(_Point(1.0, ())) != result_digest(_Point(1.0, ("x",)))
        assert result_digest(_Point(1.0, ())) != result_digest((1.0, ()))


class TestResultsIdentical:
    def test_every_field_is_compared(self, result):
        # warmup_seconds is not compared by any hand-written field list:
        # it differs only through the structural walk.
        assert results_identical(result, replace(result))
        assert not results_identical(result, replace(result, warmup_seconds=4.0))

    def test_nested_outcome_change_detected(self, result):
        apps = [replace(result.apps[0], switches=result.apps[0].switches + 1)]
        assert not results_identical(result, replace(result, apps=apps))

    def test_flipped_array_bit_detected(self, result):
        p99 = result.epoch_p99.copy()
        p99[-1] = np.nextafter(p99[-1], np.inf)
        assert not results_identical(result, replace(result, epoch_p99=p99))
