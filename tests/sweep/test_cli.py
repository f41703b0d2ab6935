"""The ``python -m repro.sweep`` control plane, driven in-process."""

import json

import pytest

from repro.cas import stable_hash
from repro.sweep import JobSpool, Scenario, SweepCache
from repro.sweep.cli import build_parser, build_spec, main
from repro.sweep.policies import make_policy

BASE_ARGS = [
    "--services", "mongodb",
    "--apps", "kmeans",
    "--loads", "0.5,0.8",
    "--seeds", "4",
    "--horizon", "60",
]


def _submit(spool, cache, *extra):
    return main(
        ["submit", "--spool", str(spool), "--cache", str(cache), *BASE_ARGS, *extra]
    )


class TestSubmit:
    def test_spools_grid(self, tmp_path, capsys):
        assert _submit(tmp_path / "spool", tmp_path / "cache") == 0
        out = capsys.readouterr().out
        assert "spooled 2 scenarios" in out
        spool = JobSpool(tmp_path / "spool")
        assert len(spool.job_ids()) == 2
        scenarios = [spool.load_scenario(job_id) for job_id in spool.job_ids()]
        assert {scenario.load_fraction for scenario in scenarios} == {0.5, 0.8}
        assert all(scenario.horizon == 60.0 for scenario in scenarios)
        # Each job is named by its result key.
        cache = SweepCache(tmp_path / "cache")
        assert spool.job_ids() == sorted(cache.key(s) for s in scenarios)

    def test_resubmit_is_idempotent(self, tmp_path):
        _submit(tmp_path / "spool", tmp_path / "cache")
        _submit(tmp_path / "spool", tmp_path / "cache")
        assert len(JobSpool(tmp_path / "spool").job_ids()) == 2

    def test_multi_app_mix_syntax(self, tmp_path):
        main(
            [
                "submit", "--spool", str(tmp_path / "spool"),
                "--services", "nginx",
                "--apps", "kmeans+canneal", "--apps", "snp",
                "--seeds", "1",
            ]
        )
        spool = JobSpool(tmp_path / "spool")
        mixes = {
            JobSpool(tmp_path / "spool").load_scenario(job_id).apps
            for job_id in spool.job_ids()
        }
        assert mixes == {("kmeans", "canneal"), ("snp",)}

    def test_wait_serves_from_cache_after_worker_drain(self, tmp_path, capsys):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        _submit(spool, cache)
        main(["worker", "--spool", str(spool), "--cache", str(cache),
              "--exit-when-idle"])
        capsys.readouterr()
        assert _submit(spool, cache, "--wait", "--timeout", "60") == 0
        assert "2 from cache" in capsys.readouterr().out


class TestWorkerAndStatus:
    def test_worker_drains_and_status_reports(self, tmp_path, capsys):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        _submit(spool, cache)
        assert main(
            ["worker", "--spool", str(spool), "--cache", str(cache),
             "--exit-when-idle", "--worker-id", "cli-test"]
        ) == 0
        assert "executed 2 jobs" in capsys.readouterr().out
        assert main(["status", "--spool", str(spool), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status == {
            "total": 2, "done": 2, "running": 0, "expired": 0, "pending": 0,
            "failed": 0,
        }
        assert SweepCache(cache).entry_count() == 2

    def test_worker_exits_immediately_on_empty_spool(self, tmp_path, capsys):
        assert main(
            ["worker", "--spool", str(tmp_path / "spool"), "--cache",
             str(tmp_path / "cache"), "--exit-when-idle"]
        ) == 0
        assert "executed 0 jobs" in capsys.readouterr().out


class TestCacheCommands:
    def test_stats_empty(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache", str(tmp_path / "cache"), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0 and stats["total_bytes"] == 0

    def test_stats_after_population(self, tmp_path, capsys):
        cache = SweepCache(tmp_path / "cache")
        scenario = Scenario(service="mongodb", apps=("kmeans",))
        key = cache.key(scenario)
        cache.put(key, "payload")
        assert cache.get(key) == "payload"
        cache.flush_stats()  # counters batch in memory until flushed
        main(["cache", "stats", "--cache", str(tmp_path / "cache"), "--json"])
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["hit_rate"] == 1.0

    def test_prune_requires_a_bound(self, tmp_path):
        assert main(["cache", "prune", "--cache", str(tmp_path / "cache")]) == 2

    def test_prune_max_bytes(self, tmp_path, capsys):
        cache = SweepCache(tmp_path / "cache")
        for seed in range(3):
            scenario = Scenario(service="mongodb", apps=("kmeans",), seed=seed)
            cache.put(cache.key(scenario), "x" * 1000)
        main(["cache", "prune", "--cache", str(tmp_path / "cache"),
              "--max-bytes", "1100", "--json"])
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["removed"] == 2
        assert pruned["remaining"] == 1
        assert SweepCache(tmp_path / "cache").entry_count() == 1


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_submit_requires_apps(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["submit", "--spool", str(tmp_path / "spool")])


def _built(*flags):
    args = build_parser().parse_args(["submit", "--spool", "unused", *flags])
    return build_spec(args).scenarios()


MULTI_AXIS_FLAGS = (
    "--services", "nginx,memcached",
    "--apps", "kmeans+canneal", "--apps", "snp",
    "--policies", "pliant,precise",
    "--loads", "0.5,0.9",
    "--intervals", "0.5,1",
    "--seeds", "0,3",
    "--horizon", "60",
    "--monitor-epoch", "0.05",
    "--slack-threshold", "0.2",
)


class TestBuildSpec:
    """The scenarios grid flags expand to are pinned: their keys address
    the result cache, so a change here silently goes cold (or stale)."""

    def test_default_submit_keys_pinned(self):
        scenarios = _built("--apps", "canneal")
        assert [s.label() for s in scenarios] == [
            "memcached/canneal/pliant@0.775/dt1/s0"
        ]
        assert stable_hash([s.to_payload() for s in scenarios]) == (
            "431f8b740d4c2777e512a02e355b5b70"
        )

    def test_multi_axis_keys_pinned(self):
        scenarios = _built(*MULTI_AXIS_FLAGS)
        assert len(scenarios) == 64
        # Axis order: service, apps, policy, load, interval, seed (slowest
        # first).
        assert scenarios[0].label() == "nginx/kmeans+canneal/pliant@0.5/dt0.5/s0"
        assert scenarios[1].label() == "nginx/kmeans+canneal/pliant@0.5/dt0.5/s3"
        assert scenarios[-1].label() == "memcached/snp/precise@0.9/dt1/s3"
        assert stable_hash([s.to_payload() for s in scenarios]) == (
            "e5819c47e312cffe92ccf0d2b0654e59"
        )

    def test_slack_threshold_reaches_every_scenario(self):
        scenarios = _built(
            "--apps", "canneal", "--apps", "kmeans",
            "--policies", "pliant,core-reclaim-only",
            "--slack-threshold", "0.3",
        )
        assert len(scenarios) == 4
        assert all(s.slack_threshold == 0.3 for s in scenarios)
        # ... and from there the policy each scenario builds.
        assert all(make_policy(s).slack_threshold == 0.3 for s in scenarios)
