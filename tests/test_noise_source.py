"""Every normal of the package comes from a keyed ``NoiseStream``.

Outputs are byte-identical across ``--threads`` values because a path's
normals are a pure function of (seed, namespace, purpose, path index,
step), and that holds only while every draw goes through
``rng.NoiseStream``. So ``rng.py`` alone may import or name
``numpy.random`` or its ``Generator``, ``SeedSequence`` and
``default_rng``.
"""

import ast
from pathlib import Path

import pytest

import avgvar

PACKAGE = Path(avgvar.__file__).parent
EXEMPT = {"rng.py"}
RNG_NAMES = {"Generator", "SeedSequence", "default_rng"}


def _is_numpy_random(module):
    return module == "numpy.random" or module.startswith("numpy.random.")


def rng_uses(source):
    """(line, what) for every construct in ``source`` that imports or names
    numpy.random or one of RNG_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names if _is_numpy_random(a.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _is_numpy_random(module):
                found.append((node.lineno, module))
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name in RNG_NAMES or (module == "numpy" and a.name == "random"))
        elif isinstance(node, ast.Attribute):
            if node.attr in RNG_NAMES or (node.attr == "random" and isinstance(node.value, ast.Name)
                                          and node.value.id in ("np", "numpy")):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in RNG_NAMES:
            found.append((node.lineno, node.id))
    return found


def package_sources():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)


@pytest.mark.parametrize("path", package_sources(), ids=lambda p: p.name)
def test_module_draws_no_noise_of_its_own(path):
    assert rng_uses(path.read_text()) == []


def test_the_noise_module_is_the_one_that_draws():
    assert rng_uses((PACKAGE / "rng.py").read_text())


@pytest.mark.parametrize("snippet", [
    "import numpy.random",
    "import numpy.random as npr",
    "import numpy.random.bit_generator",
    "from numpy.random import SFC64",
    "from numpy.random import default_rng as make",
    "from numpy import random",
    "from numpy import random as npr",
    "x = np.random.normal(size=3)",
    "x = numpy.random.standard_normal(3)",
    "g = np.random.default_rng(1)",
    "g = default_rng(1)",
    "g = Generator(bits)",
    "s = SeedSequence(1)",
    "s = rng.SeedSequence(1)",
    "make = np_random.default_rng",
])
def test_guard_catches(snippet):
    assert rng_uses(snippet)


def test_guard_allows_the_package_streams():
    ok = ("from .rng import PURPOSE_VOL, NoiseStream\n"
          "stream = NoiseStream(seed, PURPOSE_VOL)\n"
          "xi = stream.normal_matrix(range(4), 0, 16)\n"
          "# the sign of the states changes at random\n")
    assert rng_uses(ok) == []
