"""SweepCache: content addressing, persistence, corruption recovery."""

import dataclasses
import hashlib
import json
import multiprocessing
import pickle
import sys

import numpy
import pytest

import repro.sweep.cache as cache_module
from repro.apps import make_app
from repro.cas import numeric_environment
from repro.search.variants import DesignSpaceExplorer
from repro.sweep import JobSpool, Scenario, SweepCache
from repro.sweep.cache import (
    FORMAT_VERSION,
    STATS_LOG,
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

    @pytest.mark.parametrize(
        "payload",
        [
            {"b": [1, {"z": 0.1, "a": None}], "a": True},
            {"n": [1e-310, 2.5e300, -0.0, 0.1 + 0.2], "i": -(2**70)},
            {"é": "ü☃", "key\n": ["\u0000", "\ud83d\ude00"]},
            [],
            "x",
        ],
    )
    def test_is_sha256_of_canonical_json(self, payload):
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert stable_hash(payload) == digest[:32]
        assert stable_hash(payload, length=16) == digest[:16]


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


#: Scenarios whose keys are pinned, with the code and numeric environment
#: fixed: a float sum, a negative seed, a moving load, a kwargs tree, and
#: a policy registered elsewhere with non-ASCII kwargs.
_PINNED_KEYS = {
    "6e0f1f2094e058592fce791c134abfae": Scenario(service="mongodb", apps=("kmeans",), seed=4),
    "a1eb78545973c0c1370e3b898d5194c8": Scenario(
        service="memcached",
        apps=("canneal", "water_nsquared"),
        policy="precise",
        load_fraction=0.1 + 0.2,
        horizon=123.456,
        seed=-7,
    ),
    "c90d49dd6bafd0231e7de80bdd73eee0": Scenario(
        service="nginx",
        apps=("snp",),
        policy="static-level",
        policy_kwargs=(("levels", (("snp", 2),)),),
        loadgen_shape="diurnal",
        loadgen_params=(("low", 0.2), ("high", 0.9), ("period", 60.0)),
    ),
    "d63c827ae77dc2c507adb0b512be3ba9": Scenario(
        service="nginx",
        apps=("blast",),
        policy="politique-é",
        policy_kwargs=(("nom", "café"), ("poids", 1e-300)),
    ),
}


class TestPinnedKeys:
    """Result keys and spool job ids are content addresses other hosts
    and earlier runs share: a change to how they are computed must not
    move them."""

    @pytest.fixture(autouse=True)
    def _fixed_code_and_environment(self, monkeypatch):
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "0123456789abcdef")
        monkeypatch.setattr(cache_module, "numeric_environment", lambda: "numpy0.0.0-py3.0")

    def test_result_keys(self, cache):
        assert {cache.key(s): s for s in _PINNED_KEYS.values()} == _PINNED_KEYS

    def test_spool_job_ids(self, cache, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        ids = spool.submit_many(list(_PINNED_KEYS.values()), cache)
        assert ids == list(_PINNED_KEYS)


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

    def test_caches_on_one_root_sum_their_counts(self, tmp_path):
        first, second = SweepCache(tmp_path / "sweeps"), SweepCache(tmp_path / "sweeps")
        key = first.key(_scenario())
        first.put(key, "value")
        for _ in range(3):
            first.get(key)
        second.get(key)
        second.get(first.key(_scenario(seed=9)))
        first.flush_stats()
        second.flush_stats()
        stats = SweepCache(tmp_path / "sweeps").stats()
        assert (stats.hits, stats.misses) == (4, 1)

    def test_counter_log_holds_one_record_per_flush(self, cache):
        cache.get("0" * 32)
        cache.flush_stats()
        cache.flush_stats()  # nothing pending: nothing appended
        cache.get("0" * 32)
        cache.get("0" * 32)
        cache.flush_stats()
        assert (cache.root / STATS_LOG).read_bytes() == b"0 1\n0 2\n"

    def test_malformed_records_are_skipped(self, cache):
        cache.root.mkdir(parents=True)
        (cache.root / STATS_LOG).write_bytes(
            b"2 1\n7 x\n1_0 1\n-1 3\n5\n\n 4 4\n3 3 3\n1 2\n9 9"
        )
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (3, 3)

    def test_a_record_appended_after_a_torn_one(self, cache):
        """A torn record (no newline at the end of the log) is closed
        as malformed by the next append: it is skipped, later records
        count."""
        cache.root.mkdir(parents=True)
        (cache.root / STATS_LOG).write_bytes(b"4 4\n12 3")
        cache.get("0" * 32)
        cache.flush_stats()
        cache.get("0" * 32)
        cache.flush_stats()
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (4, 6)
        assert (cache.root / STATS_LOG).read_bytes() == b"4 4\n12 3!\n0 1\n0 1\n"

    def test_empty_root_reads_zeros(self, tmp_path):
        cache = SweepCache(tmp_path / "never-created")
        stats = cache.stats()
        assert (stats.entries, stats.hits, stats.misses) == (0, 0, 0)
        assert not cache.root.exists()

    def test_concurrent_flushes_total_exactly(self, tmp_path):
        """More flushing processes than cores, released together: a lost
        or torn append would show in the totals."""
        root = tmp_path / "sweeps"
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(_FLUSHERS)
        procs = [
            context.Process(target=_look_up, args=(root, start, seed))
            for seed in range(_FLUSHERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0] * _FLUSHERS
        stats = SweepCache(root).stats()
        assert (stats.hits, stats.misses) == (_FLUSHERS * _LOOKUPS,) * 2

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
        cache.get(key)  # a counted lookup, flushed to stats.log by stats()
        cache.prune(older_than=0.0, max_bytes=0)
        assert cache.entry_count() == 0
        stats = cache.stats()
        assert stats.hits == 1  # counters survived the prune


#: Processes in the concurrent-flush test, and the hits and misses each
#: records.
_FLUSHERS = 4
_LOOKUPS = 20 * SweepCache.STATS_FLUSH_EVERY + 7


def _look_up(root, start, seed):
    """Record ``_LOOKUPS`` hits and as many misses in a cache on ``root``,
    flushing every ``STATS_FLUSH_EVERY`` lookups and once at the end."""
    cache = SweepCache(root)
    key = cache.key(_scenario(seed=seed))
    cache.put(key, "value")
    missing = cache.key(_scenario(seed=100 + seed))
    start.wait()
    for _ in range(_LOOKUPS):
        cache.get(key)
        cache.get(missing)
    cache.flush_stats()


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
