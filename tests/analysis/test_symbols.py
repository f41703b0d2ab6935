"""Module summaries: what the extractor records per file.

These are the facts every cross-file rule is built on — if extraction
drops a call site or mis-canonicalizes a lock, the interprocedural
layer is silently blind, so the shapes are pinned here one by one.
"""

import ast

from repro.analysis.symbols import (
    MODULE_BODY,
    SymbolTable,
    module_name,
    summarize_module,
)
from repro.analysis.zones import Zone


def summarize(source: str, relpath: str = "lib/mod.py", **kwargs):
    tree = ast.parse(source)
    return summarize_module(
        tree, relpath, tuple(source.splitlines()), **kwargs
    )


class TestModuleName:
    def test_plain_module(self):
        assert module_name("repro/core/runtime.py") == ("repro.core.runtime", False)

    def test_leading_src_is_stripped(self):
        assert module_name("src/repro/rng.py") == ("repro.rng", False)

    def test_package_init_names_the_package(self):
        assert module_name("src/repro/sweep/__init__.py") == (
            "repro.sweep",
            True,
        )


class TestExportsAndImports:
    def test_aliased_reexport_is_recorded(self):
        summary = summarize("from lib.impl import now as now_alias\n")
        assert summary.exports["now_alias"] == "lib.impl.now"

    def test_relative_import_is_absolutized(self):
        summary = summarize(
            "from .other import fn\nfrom ..top import g\n",
            relpath="pkg/sub/mod.py",
        )
        assert summary.exports["fn"] == "pkg.sub.other.fn"
        assert summary.exports["g"] == "pkg.top.g"

    def test_zone_comes_from_the_relpath(self):
        assert summarize("x = 1\n", "repro/core/x.py").zone == "deterministic"
        assert summarize("x = 1\n", "lib/x.py").zone == "free"


class TestCallExtraction:
    def test_call_kinds(self):
        summary = summarize(
            "import time\n"
            "from lib.util import helper\n"
            "def local_target():\n"
            "    pass\n"
            "def f():\n"
            "    time.sleep(1)\n"
            "    helper()\n"
            "    local_target()\n"
            "class C:\n"
            "    def g(self):\n"
            "        self.h()\n"
            "    def h(self):\n"
            "        pass\n"
        )
        calls = {
            (site.kind, site.target)
            for site in summary.functions["f"].calls
        }
        assert ("abs", "time.sleep") in calls
        assert ("abs", "lib.util.helper") in calls
        assert ("local", "local_target") in calls
        method_calls = {
            (site.kind, site.target)
            for site in summary.functions["C.g"].calls
        }
        assert ("self", "h") in method_calls

    def test_instance_call_resolves_like_the_class_method(self):
        summary = summarize(
            "class Timer:\n"
            "    def read(self):\n"
            "        return 0\n"
            "def f():\n"
            "    return Timer().read()\n"
        )
        calls = {
            (site.kind, site.target)
            for site in summary.functions["f"].calls
        }
        assert ("local", "Timer.read") in calls

    def test_module_level_code_lands_in_the_module_body(self):
        summary = summarize("import time\nstamp = time.time()\n")
        body = summary.functions[MODULE_BODY]
        assert [(s.rule, s.target) for s in body.sources] == [
            ("transitive-wallclock", "time.time")
        ]


class TestSourcesAndWaivers:
    def test_clock_and_rng_sources_in_free_zone(self):
        summary = summarize(
            "import random\n"
            "import time\n"
            "def f():\n"
            "    return time.time() + random.random()\n"
        )
        sources = {
            (s.rule, s.target) for s in summary.functions["f"].sources
        }
        assert sources == {
            ("transitive-wallclock", "time.time"),
            ("transitive-rng", "random.random"),
        }

    def test_waived_source_site_is_dropped_at_extraction(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        waivers = {3: frozenset({"transitive-wallclock"})}
        summary = summarize(source)
        assert summary.functions["f"].sources
        tree = ast.parse(source)
        waived = summarize_module(
            tree,
            "lib/mod.py",
            tuple(source.splitlines()),
            waivers=waivers,
        )
        assert waived.functions["f"].sources == ()


class TestRegistrations:
    def test_registration_and_registry_read(self):
        summary = summarize(
            "from repro.sweep.policies import register_policy\n"
            "from repro.sweep.policies import POLICY_REGISTRY\n"
            "def build(sc, kw):\n"
            "    return None\n"
            "register_policy('mine', build)\n"
            "def dispatch(name):\n"
            "    return POLICY_REGISTRY[name]\n"
        )
        (reg,) = summary.registrations
        assert (reg.family, reg.name, reg.target_kind, reg.target) == (
            "policy",
            "mine",
            "local",
            "build",
        )
        assert summary.functions["dispatch"].registry_reads == ("policy",)


class TestSymbolTableResolve:
    def test_resolution_follows_reexport_chains(self):
        facade = summarize(
            "from lib.impl import run as launch\n", relpath="lib/api.py"
        )
        impl = summarize("def run():\n    pass\n", relpath="lib/impl.py")
        table = SymbolTable([facade, impl])
        assert table.resolve("lib.api.launch") == "lib.impl.run"

    def test_reexport_cycle_terminates(self):
        a = summarize("from lib.b import broken\n", relpath="lib/a.py")
        b = summarize("from lib.a import broken\n", relpath="lib/b.py")
        table = SymbolTable([a, b])
        assert table.resolve("lib.a.broken") is None
        assert table.resolve("lib.b.broken") is None
