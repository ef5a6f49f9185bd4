"""The package declares exactly the third-party modules its code imports.

Every ``import`` under ``src/repro`` is scanned statically (no module is
executed), so a dependency pulled in only on some code path still counts.
Names outside the standard library (``sys.stdlib_module_names``) and
outside ``repro`` itself must equal ``[project].dependencies`` in
pyproject.toml: an undeclared import breaks a clean install, and a
declared name nobody imports is dead weight.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

if sys.version_info < (3, 11):
    pytest.skip("needs tomllib (Python 3.11+)", allow_module_level=True)

import tomllib

REPO = Path(__file__).parent.parent


def _imported_top_level_names(root: Path) -> set:
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_imports():
    imported = _imported_top_level_names(REPO / "src" / "repro")
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
        for req in project["dependencies"]
    }
    assert third_party == declared
