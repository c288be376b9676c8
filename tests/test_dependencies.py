"""The package imports nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "linksched"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(path):
    """(line, module) for each absolute import outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_numpy_and_stdlib_only(path):
    assert foreign_imports(path) == []


def test_guard_sees_the_package_and_foreign_imports(tmp_path):
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    probe = tmp_path / "probe.py"
    probe.write_text("import os, numpy.linalg\nfrom . import graph\n"
                     "import scipy.sparse\nfrom hypothesis import given\n")
    assert foreign_imports(probe) == [(3, "scipy.sparse"), (4, "hypothesis")]
