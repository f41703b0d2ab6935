"""``python -m repro.sweep submit --spec`` — the spec-file control plane."""

import json

import pytest

from repro.experiment import ExperimentSpec, ResultSet
from repro.sweep import JobSpool
from repro.sweep.cli import main


def spec_file(tmp_path, **overrides):
    spec = ExperimentSpec(
        name="cli-spec",
        base={
            "service": "mongodb",
            "apps": "kmeans",
            "seed": 4,
            "horizon": 30.0,
            "loadgen_shape": "step",
            "loadgen_params": {"steps": [[0.0, 0.5], [15.0, 0.9]]},
            **overrides,
        },
        axes={"slack_threshold": (0.05, 0.10)},
    )
    return spec, spec.save(tmp_path / "exp.json")


class TestSubmitSpec:
    def test_spools_spec_scenarios(self, tmp_path, capsys):
        spec, path = spec_file(tmp_path)
        assert main(
            ["submit", "--spool", str(tmp_path / "spool"),
             "--cache", str(tmp_path / "cache"), "--spec", str(path)]
        ) == 0
        assert "spooled 2 scenarios" in capsys.readouterr().out
        spool = JobSpool(tmp_path / "spool")
        loaded = [spool.load_scenario(job_id) for job_id in spool.job_ids()]
        assert set(loaded) == set(spec.scenarios())
        # The new axes travel through the spool JSON intact.
        assert all(s.loadgen_shape == "step" for s in loaded)

    def test_wait_executes_and_warm_rerun_hits_cache(self, tmp_path, capsys):
        _, path = spec_file(tmp_path)
        args = ["submit", "--spool", str(tmp_path / "spool"),
                "--cache", str(tmp_path / "cache"), "--spec", str(path),
                "--wait", "--timeout", "300"]
        assert main([*args, "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios complete (0 from cache)" in out
        # Warm rerun: >= 95% cached (here: all of it), no workers needed.
        assert main(args) == 0
        assert "2 scenarios complete (2 from cache)" in capsys.readouterr().out

    def test_wait_saves_resultset(self, tmp_path, capsys):
        spec, path = spec_file(tmp_path)
        out_path = tmp_path / "results.pkl"
        assert main(
            ["submit", "--spool", str(tmp_path / "spool"),
             "--cache", str(tmp_path / "cache"), "--spec", str(path),
             "--wait", "--workers", "1", "--timeout", "300",
             "--out", str(out_path)]
        ) == 0
        results = ResultSet.load(out_path)
        assert len(results) == 2
        assert results.spec == spec

    def test_spec_exclusive_with_grid_flags(self, tmp_path):
        _, path = spec_file(tmp_path)
        with pytest.raises(SystemExit):
            main(["submit", "--spool", str(tmp_path / "spool"),
                  "--spec", str(path), "--apps", "kmeans"])
        # Every grid flag conflicts, not just --apps — a silently dropped
        # flag would run a different experiment than the command reads.
        with pytest.raises(SystemExit, match="--seeds"):
            main(["submit", "--spool", str(tmp_path / "spool"),
                  "--spec", str(path), "--seeds", "0,1"])
        # A flag given at the Scenario default is still a given flag.
        with pytest.raises(SystemExit, match="--slack-threshold"):
            main(["submit", "--spool", str(tmp_path / "spool"),
                  "--spec", str(path), "--slack-threshold", "0.1"])

    def test_out_requires_wait(self, tmp_path):
        _, path = spec_file(tmp_path)
        with pytest.raises(SystemExit, match="--out needs --wait"):
            main(["submit", "--spool", str(tmp_path / "spool"),
                  "--spec", str(path), "--out", str(tmp_path / "r.pkl")])

    def test_bad_spec_file_fails_loudly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": {"service": "mongodb"}, "axes": [],
                                   "bogus": 1}))
        with pytest.raises(ValueError, match="unknown spec field"):
            main(["submit", "--spool", str(tmp_path / "spool"),
                  "--spec", str(bad)])
