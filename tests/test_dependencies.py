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


QUANTILE_FUNCTIONS = {"percentile", "quantile"}


def numpy_quantile_calls(path):
    """(line, name) for each ``np.percentile`` or ``np.quantile`` the
    module names, called or not, or imports from numpy."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            if node.attr in QUANTILE_FUNCTIONS and \
                    node.value.id in ("np", "numpy"):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in QUANTILE_FUNCTIONS]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_percentiles_through_one_kernel(path):
    # every percentile of the package goes through sim.percentiles
    assert numpy_quantile_calls(path) == []


def test_quantile_guard_sees_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nx = np.percentile([1], 50)\n"
                     "f = np.quantile\ny = sim.percentiles([1], [50])\n"
                     "z = numpy.quantile([1], 0.5)\n"
                     "from numpy import percentile, mean\n")
    assert numpy_quantile_calls(probe) == [
        (2, "percentile"), (3, "quantile"), (5, "quantile"),
        (6, "percentile")]


def test_guard_sees_the_package_and_foreign_imports(tmp_path):
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    probe = tmp_path / "probe.py"
    probe.write_text("import os, numpy.linalg\nfrom . import graph\n"
                     "import scipy.sparse\nfrom hypothesis import given\n")
    assert foreign_imports(probe) == [(3, "scipy.sparse"), (4, "hypothesis")]
