"""One model dispatch: ``ensemble.drivers`` maps a validated model to its
path simulator and weight function, and every caller in the package goes
through it. So no package module other than ``ensemble.py`` may import or
name ``simulate_ou_paths``, ``simulate_cir_paths``, ``skorokhod_weight_ou``
or ``skorokhod_weight_cir``, except the module that defines each one;
``__init__.py``, whose export map names them as strings, is exempt.
"""

import ast
from pathlib import Path

import pytest

import avgvar

PACKAGE = Path(avgvar.__file__).parent
EXEMPT = {"ensemble.py", "__init__.py"}
DEFINED_IN = {"simulate_ou_paths": "paths.py", "simulate_cir_paths": "paths.py",
              "skorokhod_weight_ou": "weights_ou.py",
              "skorokhod_weight_cir": "weights_cir.py"}


def driver_uses(source, module=None):
    """(line, name) for every construct in ``source`` that imports or names
    one of the drivers, other than those ``module`` defines."""
    names = {name for name, home in DEFINED_IN.items() if home != module}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, a.name) for a in node.names if a.name in names)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Constant) and node.value in names:
            found.append((node.lineno, node.value))
    return found


def package_sources():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)


@pytest.mark.parametrize("path", package_sources(), ids=lambda p: p.name)
def test_module_picks_no_driver_of_its_own(path):
    assert driver_uses(path.read_text(), path.name) == []


def test_the_ensemble_is_the_one_that_dispatches():
    found = {name for _, name in driver_uses((PACKAGE / "ensemble.py").read_text())}
    assert found == set(DEFINED_IN)


@pytest.mark.parametrize("snippet", [
    "from .paths import simulate_ou_paths",
    "from .paths import make_grid, simulate_cir_paths as sim",
    "from .weights_ou import skorokhod_weight_ou",
    "from avgvar.weights_cir import skorokhod_weight_cir",
    "from avgvar import simulate_ou_paths",
    "from . import paths\nsim = paths.simulate_cir_paths",
    "import avgvar.weights_ou\nw = avgvar.weights_ou.skorokhod_weight_ou",
    "sim = getattr(paths, 'simulate_ou_paths')",
    "table = {'ou': skorokhod_weight_ou}",
])
def test_guard_catches(snippet):
    assert driver_uses(snippet)


def test_guard_allows_the_dispatch_and_a_definition():
    ok = ("from .ensemble import drivers\n"
          "from .paths import make_grid, ou_step\n"
          "simulate, weigh = drivers(model)\n"
          '"""Rebuilds what ``paths.simulate_ou_paths`` simulates."""\n')
    assert driver_uses(ok) == []
    assert driver_uses("def simulate_ou_paths(model, grid, stream, path_indices, ws):\n"
                       "    pass\n", "paths.py") == []
