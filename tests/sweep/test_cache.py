"""SweepCache: content addressing, persistence, corruption recovery."""

import dataclasses
import pickle
import sys

import numpy
import pytest

import repro.sweep.cache as cache_module
from repro.apps import make_app
from repro.cas import numeric_environment
from repro.search.variants import DesignSpaceExplorer
from repro.sweep import Scenario, SweepCache
from repro.sweep.cache import (
    FORMAT_VERSION,
    atomic_write_bytes,
    code_fingerprint,
    stable_hash,
)


@pytest.fixture()
def cache(tmp_path):
    return SweepCache(tmp_path / "sweeps")


def _scenario(**kwargs) -> Scenario:
    defaults = {"service": "mongodb", "apps": ("kmeans",), "seed": 4}
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestStableHash:
    def test_stable_across_calls(self):
        payload = {"b": 2, "a": [1, 2, 3]}
        assert stable_hash(payload) == stable_hash(payload)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_change_changes_hash(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_length_parameter(self):
        assert len(stable_hash({"a": 1}, length=16)) == 16


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "sub" / "file.bin"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_leaves_no_tmp_files(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"


class TestKeying:
    def test_same_scenario_same_key(self, cache):
        assert cache.key(_scenario()) == cache.key(_scenario())

    @pytest.mark.parametrize(
        "change",
        [
            {"service": "nginx"},
            {"apps": ("canneal",)},
            {"apps": ("kmeans", "canneal")},
            {"policy": "precise"},
            {"load_fraction": 0.5},
            {"decision_interval": 2.0},
            {"monitor_epoch": 0.2},
            {"slack_threshold": 0.2},
            {"horizon": 100.0},
            {"seed": 5},
            {"stop_when_apps_done": False},
            {"exploration_seed": 1},
        ],
    )
    def test_any_config_change_invalidates(self, cache, change):
        assert cache.key(_scenario()) != cache.key(_scenario(**change))

    def test_policy_kwargs_change_invalidates(self, cache):
        a = _scenario(policy_kwargs=(("max_backoff", 16),))
        b = _scenario(policy_kwargs=(("max_backoff", 32),))
        assert cache.key(a) != cache.key(b)

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_code_change_invalidates(self, cache, monkeypatch):
        before = cache.key(_scenario())
        monkeypatch.setattr(
            cache_module, "code_fingerprint", lambda: "deadbeefdeadbeef"
        )
        assert cache.key(_scenario()) != before


class TestRoundTrip:
    def test_miss_returns_none(self, cache):
        assert cache.get(cache.key(_scenario())) is None
        assert cache.misses == 1

    def test_put_get_round_trip(self, cache):
        key = cache.key(_scenario())
        cache.put(key, {"payload": 42})
        assert cache.get(key) == {"payload": 42}
        assert cache.hits == 1

    def test_contains_and_count(self, cache):
        key = cache.key(_scenario())
        assert key not in cache
        cache.put(key, "value")
        assert key in cache
        assert cache.entry_count() == 1

    def test_clear_removes_entries(self, cache):
        key = cache.key(_scenario())
        cache.put(key, "value")
        assert cache.clear() == 1
        assert cache.get(key) is None

    def test_sharded_layout(self, cache):
        key = cache.key(_scenario())
        cache.put(key, "value")
        assert cache.path(key).parent.name == key[:2]

    def test_env_override_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env-cache"))
        assert SweepCache().root == tmp_path / "env-cache"


class TestStatsAndPrune:
    def test_stats_empty_cache(self, cache):
        stats = cache.stats()
        assert (stats.entries, stats.total_bytes) == (0, 0)
        assert stats.hit_rate == 0.0

    def test_stats_counts_entries_and_bytes(self, cache):
        for seed in range(3):
            cache.put(cache.key(_scenario(seed=seed)), "x" * 100)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 300

    def test_hit_rate_persists_across_instances(self, tmp_path):
        first = SweepCache(tmp_path / "sweeps")
        key = first.key(_scenario())
        first.put(key, "value")
        first.get(key)                      # hit
        first.get(first.key(_scenario(seed=9)))  # miss
        first.flush_stats()  # normally at exit or every 64th lookup
        fresh = SweepCache(tmp_path / "sweeps")
        stats = fresh.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_counters_flush_automatically_at_threshold(self, tmp_path):
        recorder = SweepCache(tmp_path / "sweeps")
        missing = recorder.key(_scenario(seed=99))
        for _ in range(SweepCache.STATS_FLUSH_EVERY):
            recorder.get(missing)
        observer = SweepCache(tmp_path / "sweeps")
        assert observer.stats().misses == SweepCache.STATS_FLUSH_EVERY

    def test_unrecorded_reads_skip_counters(self, cache):
        key = cache.key(_scenario())
        cache.put(key, "value")
        assert cache.get(key, record=False) == "value"
        assert cache.get("0" * 32, record=False) is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_prune_older_than(self, cache):
        import os
        import time

        old_key = cache.key(_scenario(seed=1))
        new_key = cache.key(_scenario(seed=2))
        cache.put(old_key, "old")
        cache.put(new_key, "new")
        stale = time.time() - 3600.0
        os.utime(cache.path(old_key), (stale, stale))
        pruned = cache.prune(older_than=60.0)
        assert pruned.removed == 1
        assert old_key not in cache
        assert new_key in cache

    def test_prune_max_bytes_evicts_lru(self, cache):
        import os
        import time

        keys = [cache.key(_scenario(seed=seed)) for seed in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, "x" * 1000)
            past = time.time() - 100.0 + index
            os.utime(cache.path(key), (past, past))
        # Reading the oldest entry refreshes it: it must survive the prune.
        assert cache.get(keys[0]) == "x" * 1000
        entry_size = cache.path(keys[0]).stat().st_size
        pruned = cache.prune(max_bytes=entry_size + 10)
        assert pruned.removed == 2
        assert keys[0] in cache
        assert keys[1] not in cache and keys[2] not in cache

    def test_prune_reports_remaining(self, cache):
        cache.put(cache.key(_scenario()), "value")
        result = cache.prune(older_than=3600.0)
        assert result.removed == 0
        assert result.remaining == 1
        assert result.remaining_bytes > 0

    def test_prune_spares_bookkeeping_files(self, cache):
        key = cache.key(_scenario())
        cache.put(key, "value")
        cache.get(key)  # creates stats.json
        cache.prune(older_than=0.0, max_bytes=0)
        assert cache.entry_count() == 0
        stats = cache.stats()
        assert stats.hits == 1  # counters survived the prune


class TestCorruptionRecovery:
    def test_truncated_entry_treated_as_miss_and_deleted(self, cache):
        key = cache.key(_scenario())
        cache.put(key, "value")
        path = cache.path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is None
        assert not path.exists()

    def test_garbage_entry_treated_as_miss_and_deleted(self, cache):
        key = cache.key(_scenario())
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle at all")
        assert cache.get(key) is None
        assert not path.exists()

    def test_version_skew_treated_as_miss(self, cache):
        key = cache.key(_scenario())
        envelope = {"format": FORMAT_VERSION + 1, "result": "stale"}
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(envelope))
        assert cache.get(key) is None
        assert not path.exists()

    def test_recovery_then_refill(self, cache):
        key = cache.key(_scenario())
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"garbage")
        assert cache.get(key) is None
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"


class TestNumericEnvironment:
    def test_names_numpy_and_python(self):
        env = numeric_environment()
        assert f"numpy{numpy.__version__}" in env
        assert env.endswith(f"-py{sys.version_info[0]}.{sys.version_info[1]}")

    def test_computed_once_per_process(self):
        assert numeric_environment() is numeric_environment()

    def test_reported_version_changes_both_keys(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path / "sweeps")
        explorer = DesignSpaceExplorer(make_app("raytrace"), seed=0, cache_dir=tmp_path)
        before = (cache.key(_scenario()), explorer._cache_path())
        monkeypatch.setattr(numpy, "__version__", "0.0.0-other")
        numeric_environment.cache_clear()
        try:
            after = (cache.key(_scenario()), explorer._cache_path())
        finally:
            monkeypatch.undo()
            numeric_environment.cache_clear()
        assert after[0] != before[0]
        assert after[1] != before[1]
        assert (cache.key(_scenario()), explorer._cache_path()) == before
