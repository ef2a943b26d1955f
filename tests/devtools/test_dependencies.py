"""The declared runtime dependencies are exactly what ``repro`` imports.

``[project].dependencies`` in ``pyproject.toml`` is the one dependency
list (CI installs from it).  A module-level import of an undeclared
package breaks a clean install, and a declared package that nothing
imports is install weight for no behaviour, so both directions fail.
"""

from __future__ import annotations

import ast
import re
import sys

import pytest

from tests.devtools.conftest import REPO_ROOT

tomllib = pytest.importorskip("tomllib")


def third_party_imports() -> set[str]:
    """Top-level names of every absolute non-stdlib import in src/repro."""
    names: set[str] = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def declared_dependencies() -> set[str]:
    """Distribution names of ``[project].dependencies``."""
    project = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        for requirement in project["dependencies"]
    }


def test_runtime_dependencies_equal_third_party_imports():
    assert third_party_imports() == declared_dependencies()
