"""Zone-map resolution."""

from repro.analysis import Zone, zone_for


class TestZoneFor:
    def test_backends_are_distributed(self):
        assert (
            zone_for("src/repro/sweep/backends/distributed.py")
            is Zone.DISTRIBUTED
        )
        assert zone_for("src/repro/sweep/backends/base.py") is Zone.DISTRIBUTED

    def test_sweep_core_is_deterministic(self):
        # The cache/engine/grid layer feeds reproducible results even
        # though its backends subpackage is distributed.
        assert zone_for("src/repro/sweep/cache.py") is Zone.DETERMINISTIC
        assert zone_for("src/repro/sweep/engine.py") is Zone.DETERMINISTIC

    def test_named_deterministic_zones(self):
        for module in ("services", "search", "experiment", "core", "cluster"):
            path = f"src/repro/{module}/x.py"
            assert zone_for(path) is Zone.DETERMINISTIC, path

    def test_free_zones(self):
        assert zone_for("src/repro/viz/tables.py") is Zone.FREE
        assert zone_for("src/repro/analysis/engine.py") is Zone.FREE
        assert zone_for("src/repro/sweep/cli.py") is Zone.FREE
        # ``python -m repro.sweep``'s entry point imports only the CLI.
        assert zone_for("src/repro/sweep/__main__.py") is Zone.FREE
        assert zone_for("benchmarks/_common.py") is Zone.FREE
        assert zone_for("examples/quickstart.py") is Zone.FREE
        assert zone_for("scripts/bench_check.py") is Zone.FREE
        assert zone_for("tests/core/test_runtime.py") is Zone.FREE

    def test_absolute_and_relative_paths_agree(self):
        rel = zone_for("src/repro/sweep/backends/distributed.py")
        absolute = zone_for(
            "/anywhere/repo/src/repro/sweep/backends/distributed.py"
        )
        assert rel is absolute is Zone.DISTRIBUTED

    def test_unknown_paths_are_free(self):
        assert zone_for("somewhere/else.py") is Zone.FREE

    def test_longest_fragment_wins(self):
        # ``repro`` alone would say deterministic; the longer
        # ``repro/sweep/backends`` fragment must take precedence.
        assert zone_for("repro/sweep/backends/x.py") is Zone.DISTRIBUTED
        assert zone_for("repro/sweep/x.py") is Zone.DETERMINISTIC
