"""Call-graph construction and resolution edge cases.

Each test builds a tiny multi-module project in memory and asserts the
exact resolved edges — the shapes here (re-exports, ``self`` through
bases, instance calls, registry indirection, cycles) are the ones the
fixture corpus exercises end to end through the CLI.
"""

import ast
import importlib

from repro.analysis.callgraph import CallGraph
from repro.analysis.sources import REGISTRY_CALLS, REGISTRY_DICTS
from repro.analysis.symbols import SymbolTable, summarize_module

#: Where each registry family lives in this repository.
REPO_REGISTRIES = {
    "policy": "repro.sweep.policies",
    "strategy": "repro.search.strategies",
    "platform": "repro.server.platform",
    "metric": "repro.experiment.resultset",
}


def build(files: dict[str, str]) -> tuple[SymbolTable, CallGraph]:
    summaries = [
        summarize_module(ast.parse(source), relpath, tuple(source.splitlines()))
        for relpath, source in files.items()
    ]
    table = SymbolTable(summaries)
    return table, CallGraph.build(table)


def edge_pairs(graph: CallGraph) -> set[tuple[str, str]]:
    return {
        (edge.caller, edge.callee)
        for edges in graph.edges.values()
        for edge in edges
    }


class TestResolution:
    def test_direct_import_edge(self):
        _, graph = build(
            {
                "lib/a.py": "from lib.b import g\ndef f():\n    g()\n",
                "lib/b.py": "def g():\n    pass\n",
            }
        )
        assert ("lib.a.f", "lib.b.g") in edge_pairs(graph)

    def test_reexport_edge_lands_on_the_definition(self):
        _, graph = build(
            {
                "lib/a.py": "from lib.api import g2\ndef f():\n    g2()\n",
                "lib/api.py": "from lib.b import g as g2\n",
                "lib/b.py": "def g():\n    pass\n",
            }
        )
        assert ("lib.a.f", "lib.b.g") in edge_pairs(graph)

    def test_self_call_resolves_through_bases(self):
        _, graph = build(
            {
                "lib/m.py": (
                    "class Base:\n"
                    "    def now(self):\n"
                    "        pass\n"
                    "class Timer(Base):\n"
                    "    def read(self):\n"
                    "        return self.now()\n"
                )
            }
        )
        assert ("lib.m.Timer.read", "lib.m.Base.now") in edge_pairs(graph)

    def test_instance_call_resolves_inherited_methods(self):
        # ``Timer().read()`` where ``read`` lives on the base class.
        _, graph = build(
            {
                "lib/m.py": (
                    "class Base:\n"
                    "    def read(self):\n"
                    "        pass\n"
                    "class Timer(Base):\n"
                    "    pass\n"
                    "def f():\n"
                    "    return Timer().read()\n"
                )
            }
        )
        assert ("lib.m.f", "lib.m.Base.read") in edge_pairs(graph)

    def test_class_call_edges_to_init(self):
        _, graph = build(
            {
                "lib/m.py": (
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def f():\n"
                    "    return C()\n"
                )
            }
        )
        assert ("lib.m.f", "lib.m.C.__init__") in edge_pairs(graph)

    def test_opaque_calls_get_no_edge(self):
        _, graph = build(
            {
                "lib/m.py": (
                    "def f(cb):\n"
                    "    cb()\n"
                    "    x = object()\n"
                    "    x.method()\n"
                )
            }
        )
        assert edge_pairs(graph) == set()


class TestRegistryEdges:
    def test_dispatcher_gets_an_edge_to_every_registered_target(self):
        _, graph = build(
            {
                "repro/engine.py": (
                    "POLICY_REGISTRY = {}\n"
                    "def register_policy(name, builder):\n"
                    "    POLICY_REGISTRY[name] = builder\n"
                    "def make(name):\n"
                    "    return POLICY_REGISTRY[name]()\n"
                ),
                "lib/p1.py": (
                    "from repro.engine import register_policy\n"
                    "def build_one(sc, kw):\n"
                    "    pass\n"
                    "register_policy('one', build_one)\n"
                ),
                "lib/p2.py": (
                    "from repro.engine import register_policy\n"
                    "def build_two(sc, kw):\n"
                    "    pass\n"
                    "register_policy('two', build_two)\n"
                ),
            }
        )
        assert graph.registry_targets["policy"] == (
            "lib.p1.build_one",
            "lib.p2.build_two",
        )
        pairs = edge_pairs(graph)
        assert ("repro.engine.make", "lib.p1.build_one") in pairs
        assert ("repro.engine.make", "lib.p2.build_two") in pairs
        via = {
            edge.via
            for edge in graph.edges["repro.engine.make"]
            if edge.callee == "lib.p1.build_one"
        }
        assert via == {"registry:policy"}

    def test_registered_class_expands_to_its_methods(self):
        _, graph = build(
            {
                "repro/engine.py": (
                    "STRATEGIES = {}\n"
                    "def register_strategy(name, cls):\n"
                    "    STRATEGIES[name] = cls\n"
                    "def run(name):\n"
                    "    return STRATEGIES[name]\n"
                ),
                "lib/s.py": (
                    "from repro.engine import register_strategy\n"
                    "class Grid:\n"
                    "    def propose(self):\n"
                    "        pass\n"
                    "    def observe(self):\n"
                    "        pass\n"
                    "register_strategy('grid', Grid)\n"
                ),
            }
        )
        assert graph.registry_targets["strategy"] == (
            "lib.s.Grid.observe",
            "lib.s.Grid.propose",
        )
        assert ("repro.engine.run", "lib.s.Grid.propose") in edge_pairs(graph)

    def test_spellings_name_the_repo_registries(self):
        # A misspelt dict name drops every dispatch edge without a sound.
        for spelling, family in {**REGISTRY_DICTS, **REGISTRY_CALLS}.items():
            module = importlib.import_module(REPO_REGISTRIES[family])
            assert hasattr(module, spelling), (spelling, module.__name__)


class TestCycles:
    def test_import_cycle_still_builds_edges(self):
        _, graph = build(
            {
                "lib/a.py": "from lib.b import g\ndef f():\n    g()\n",
                "lib/b.py": "from lib.a import f\ndef g():\n    f()\n",
            }
        )
        pairs = edge_pairs(graph)
        assert ("lib.a.f", "lib.b.g") in pairs
        assert ("lib.b.g", "lib.a.f") in pairs

    def test_reexport_cycle_yields_no_edge(self):
        _, graph = build(
            {
                "lib/a.py": (
                    "from lib.b import broken\n"
                    "def f():\n"
                    "    broken()\n"
                ),
                "lib/b.py": "from lib.a import broken\n",
            }
        )
        assert edge_pairs(graph) == set()

    def test_base_class_cycle_terminates(self):
        _, graph = build(
            {
                "lib/m.py": (
                    "class A(B):\n"
                    "    def f(self):\n"
                    "        return self.missing()\n"
                    "class B(A):\n"
                    "    pass\n"
                )
            }
        )
        assert edge_pairs(graph) == set()
