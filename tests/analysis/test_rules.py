"""Per-rule behavior, driven by the known-good/known-bad fixture files.

Every bad fixture must produce its rule's findings; every good fixture
must be completely clean under *all* rules active in its zone — a good
fixture tripping any rule is a false-positive regression.
"""

from pathlib import Path

import pytest

from repro.analysis import FILE_RULES, Zone, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"

ZONES = {"deterministic": Zone.DETERMINISTIC, "distributed": Zone.DISTRIBUTED}


def analyze_fixture(zone_name: str, name: str):
    path = FIXTURES / zone_name / name
    return analyze_source(
        path.read_text(), relpath=name, zone=ZONES[zone_name]
    )


def rule_ids(findings) -> set[str]:
    return {finding.rule for finding in findings}


ALL_FIXTURES = sorted(
    (path.parent.name, path.name) for path in FIXTURES.glob("*/*.py")
)


class TestFixtureContract:
    def test_fixture_corpus_is_present(self):
        names = {name for _, name in ALL_FIXTURES}
        # One good and one bad fixture per shipped rule family.
        assert {
            "bad_wallclock.py",
            "bad_rng.py",
            "bad_lease_clock.py",
            "bad_serialization.py",
            "bad_telemetry.py",
        } <= names
        assert len([n for n in names if n.startswith("good_")]) >= 5

    @pytest.mark.parametrize(
        "zone_name,name",
        [(z, n) for z, n in ALL_FIXTURES if n.startswith("bad_")],
    )
    def test_every_bad_fixture_fails(self, zone_name, name):
        assert analyze_fixture(zone_name, name), f"{name} produced no findings"

    @pytest.mark.parametrize(
        "zone_name,name",
        [(z, n) for z, n in ALL_FIXTURES if n.startswith("good_")],
    )
    def test_every_good_fixture_is_clean(self, zone_name, name):
        findings = analyze_fixture(zone_name, name)
        assert not findings, [f.message for f in findings]


class TestNoWallclock:
    def test_flags_every_clock_flavor(self):
        findings = analyze_fixture("deterministic", "bad_wallclock.py")
        assert rule_ids(findings) == {"no-wallclock"}
        assert len(findings) == 4
        flagged = {f.line for f in findings}
        assert len(flagged) == 4  # one per offending function

    def test_inactive_in_free_zone(self):
        source = "import time\nstamp = time.time()\n"
        assert analyze_source(source, "scripts/x.py", zone=Zone.FREE) == []

    def test_local_name_is_not_the_module(self):
        source = "class T:\n    def f(self):\n        return self.time()\n"
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []


class TestSeededRng:
    def test_flags_unseeded_and_global_draws(self):
        findings = analyze_fixture("deterministic", "bad_rng.py")
        assert rule_ids(findings) == {"seeded-rng"}
        assert len(findings) == 5

    def test_catches_aliased_numpy(self):
        source = (
            "import numpy.random as npr\n"
            "def f():\n    return npr.default_rng()\n"
        )
        findings = analyze_source(source, "m.py", zone=Zone.DETERMINISTIC)
        assert [f.rule for f in findings] == ["seeded-rng"]

    def test_active_in_distributed_zone_too(self):
        source = "import random\ndef f():\n    return random.random()\n"
        findings = analyze_source(source, "m.py", zone=Zone.DISTRIBUTED)
        assert [f.rule for f in findings] == ["seeded-rng"]


class TestLeaseClock:
    def test_flags_wall_and_mtime_arithmetic(self):
        findings = analyze_fixture("distributed", "bad_lease_clock.py")
        assert rule_ids(findings) == {"lease-clock"}
        assert len(findings) == 4

    def test_monotonic_is_allowed_in_distributed(self):
        source = "import time\ndef f():\n    return time.monotonic()\n"
        assert analyze_source(source, "m.py", zone=Zone.DISTRIBUTED) == []

    def test_mtime_equality_is_allowed(self):
        source = (
            "def changed(seen, mtime_ns):\n"
            "    return seen is None or seen[0] != mtime_ns\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DISTRIBUTED) == []


class TestSerializationSafety:
    def test_flags_call_time_callables(self):
        findings = analyze_fixture("deterministic", "bad_serialization.py")
        assert rule_ids(findings) == {"serialization-safety"}
        assert len(findings) == 3

    def test_applies_in_every_zone(self):
        source = (
            "def f(register_policy):\n"
            "    register_policy('x', lambda sc, kw: None)\n"
        )
        for zone in Zone:
            findings = analyze_source(source, "m.py", zone=zone)
            assert [f.rule for f in findings] == ["serialization-safety"], zone


class TestPragmas:
    def test_same_line_pragma_waives(self):
        source = (
            "import time\n"
            "now = time.time()  # repro-lint: ignore[no-wallclock] -- why\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []

    def test_preceding_comment_pragma_waives(self):
        source = (
            "import time\n"
            "# repro-lint: ignore[no-wallclock] -- advisory only\n"
            "now = time.time()\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []

    def test_pragma_is_rule_scoped(self):
        source = (
            "import time\n"
            "now = time.time()  # repro-lint: ignore[seeded-rng] -- wrong id\n"
        )
        findings = analyze_source(source, "m.py", zone=Zone.DETERMINISTIC)
        assert [f.rule for f in findings] == ["no-wallclock"]

    def test_star_pragma_waives_everything(self):
        source = (
            "import time\n"
            "now = time.time()  # repro-lint: ignore[*] -- trust me\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []

    def test_pragma_on_first_line_of_multiline_statement_waives(self):
        # The finding anchors two lines below the pragma; the pragma
        # binds to the whole statement span, not its own line.
        source = (
            "import time\n"
            "now = max(  # repro-lint: ignore[no-wallclock] -- wrapped call\n"
            "    time.time(),\n"
            "    0.0,\n"
            ")\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []

    def test_multiline_statement_without_pragma_still_fails(self):
        source = (
            "import time\n"
            "now = max(\n"
            "    time.time(),\n"
            "    0.0,\n"
            ")\n"
        )
        findings = analyze_source(source, "m.py", zone=Zone.DETERMINISTIC)
        assert [f.rule for f in findings] == ["no-wallclock"]

    def test_pragma_above_decorator_waives_the_decorated_def(self):
        # The violation sits in the def header (a default argument), one
        # line below the decorator the pragma comment precedes.
        source = (
            "import time\n"
            "import functools\n"
            "# repro-lint: ignore[no-wallclock] -- import-time default\n"
            "@functools.lru_cache\n"
            "def f(stamp=time.time()):\n"
            "    return stamp\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []

    def test_pragma_on_decorator_line_waives_the_def_header(self):
        source = (
            "import time\n"
            "import functools\n"
            "@functools.lru_cache  # repro-lint: ignore[no-wallclock] -- ok\n"
            "def f(stamp=time.time()):\n"
            "    return stamp\n"
        )
        assert analyze_source(source, "m.py", zone=Zone.DETERMINISTIC) == []

    def test_decorated_def_without_pragma_still_fails(self):
        source = (
            "import time\n"
            "import functools\n"
            "@functools.lru_cache\n"
            "def f(stamp=time.time()):\n"
            "    return stamp\n"
        )
        findings = analyze_source(source, "m.py", zone=Zone.DETERMINISTIC)
        assert [f.rule for f in findings] == ["no-wallclock"]

    def test_def_span_does_not_swallow_the_body(self):
        # A pragma on the decorator must NOT waive violations deeper in
        # the function body — the span ends at the header.
        source = (
            "import time\n"
            "import functools\n"
            "@functools.lru_cache  # repro-lint: ignore[no-wallclock] -- hdr\n"
            "def f():\n"
            "    return time.time()\n"
        )
        findings = analyze_source(source, "m.py", zone=Zone.DETERMINISTIC)
        assert [f.rule for f in findings] == ["no-wallclock"]


class TestRuleSet:
    def test_five_per_file_rules_in_id_order(self):
        assert [rule.id for rule in FILE_RULES] == [
            "lease-clock",
            "no-wallclock",
            "seeded-rng",
            "serialization-safety",
            "telemetry-side-channel",
        ]

    def test_parse_error_is_reported_not_raised(self):
        findings = analyze_source("def broken(:\n", "m.py", zone=Zone.FREE)
        assert [f.rule for f in findings] == ["parse-error"]
