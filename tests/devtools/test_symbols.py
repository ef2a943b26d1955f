"""Unit tests for the project symbol table and import graph.

Exercised against ``fixtures/graph``: an import cycle
(``pkg.alpha`` <-> ``pkg.beta``), ``__init__`` re-exports (plain and
aliased), decorated definitions, and class method tables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import (
    FileContext,
    GraphRule,
    ProjectIndex,
    module_name_for,
)
from repro.devtools.lint.engine import iter_python_files, load_context

from tests.devtools.conftest import FIXTURES

GRAPH = FIXTURES / "graph"


def build_index(root: Path) -> tuple[ProjectIndex, list[FileContext]]:
    contexts = []
    for path in iter_python_files([root]):
        loaded = load_context(path, root)
        assert isinstance(loaded, FileContext), loaded
        contexts.append(loaded)
    return ProjectIndex.build(contexts), contexts


@pytest.fixture(scope="module")
def index() -> ProjectIndex:
    return build_index(GRAPH)[0]


class TestModuleNameFor:
    def test_plain_module(self):
        assert module_name_for("src/repro/ml/forest.py") == (
            "repro.ml.forest"
        )

    def test_package_init(self):
        assert module_name_for("src/repro/parallel/__init__.py") == (
            "repro.parallel"
        )

    def test_without_src_prefix(self):
        assert module_name_for("pkg/alpha.py") == "pkg.alpha"


class TestModuleTable:
    def test_bindings_and_methods(self, index):
        table = index.modules["pkg.alpha"]
        assert table.defs["ping"].kind == "function"
        sounder = table.defs["Sounder"]
        assert sounder.kind == "class"
        assert set(sounder.methods) == {"__init__", "sound"}

    def test_decorated_function_still_binds(self, index):
        assert index.modules["pkg.alpha"].defs["shouted"].kind == (
            "function"
        )

    def test_relative_import_resolved_to_absolute(self, index):
        beta_import = index.modules["pkg.alpha"].defs["beta"]
        assert beta_import.kind == "import"
        assert beta_import.target == "pkg.beta"

    def test_assignment_binding(self, index):
        assert index.modules["pkg.beta"].defs["LIMIT"].kind == "assign"


class TestProjectIndex:
    def test_resolves_direct_function(self, index):
        resolved = index.resolve("pkg.beta.pong")
        assert resolved is not None
        assert resolved.symbol.qualname == "pkg.beta.pong"

    def test_follows_init_reexport(self, index):
        resolved = index.resolve("pkg.ping")
        assert resolved is not None
        assert resolved.symbol.module == "pkg.alpha"
        assert resolved.symbol.kind == "function"

    def test_follows_aliased_reexport(self, index):
        resolved = index.resolve("pkg.pong_alias")
        assert resolved is not None
        assert resolved.symbol.qualname == "pkg.beta.pong"

    def test_cycle_terminates(self, index):
        # beta imports ping back from alpha: resolution follows the
        # edge once and must not recurse forever.
        resolved = index.resolve("pkg.beta.ping")
        assert resolved is not None
        assert resolved.symbol.module == "pkg.alpha"

    def test_class_attr_resolution(self, index):
        resolved = index.resolve("pkg.alpha.Sounder.sound")
        assert resolved is not None
        assert resolved.symbol.kind == "class"
        assert resolved.attr == "sound"

    def test_foreign_name_is_none(self, index):
        assert index.resolve("numpy.random.default_rng") is None

    def test_resolve_local_prefers_module_bindings(self, index):
        table = index.modules["pkg.alpha"]
        resolved = index.resolve_local(table, "beta.pong")
        assert resolved is not None
        assert resolved.symbol.qualname == "pkg.beta.pong"


class TestGraphRule:
    def test_check_project_builds_own_index(self):
        hits = []

        class Probe(GraphRule):
            id = "RPL998"
            name = "probe"

            def check_graph(self, contexts, idx):
                hits.append((len(contexts), len(idx.modules)))
                return []

        _, contexts = build_index(GRAPH)
        list(Probe().check_project(contexts))
        # The root __init__.py has no dotted module name, so four
        # contexts yield three named module tables.
        assert hits == [(len(contexts), 3)]
