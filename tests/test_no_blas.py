"""No chunk of the package calls BLAS.

Threaded OpenBLAS spins an idle worker on a second core after every
product, so a `(P, n+1) @ (n+1,)` reduction costs about twice its wall
time in CPU, and ``--threads`` would stop being the program's only source
of parallelism. Reductions are ``np.einsum`` without ``optimize`` (numpy's
own loops) or running sums in the sweeps. ``reference.py`` holds the
dense gradient-and-Hessian oracle of the self check, for n <= 64, and is
exempt.
"""

import ast
from pathlib import Path

import pytest

import avgvar

PACKAGE = Path(avgvar.__file__).parent
EXEMPT = {"reference.py"}
# names that route to BLAS (or, for cov, to a dot product)
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "cov", "linalg"}


def blas_uses(source):
    """(line, what) for every construct in ``source`` that may call BLAS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if "linalg" in node.module.split("."):
                found.append((node.lineno, node.module))
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name in BLAS_NAMES)
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name.startswith("numpy.linalg"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and any(kw.arg == "optimize" for kw in node.keywords)):
            found.append((node.lineno, "einsum(optimize=...)"))
    return found


def package_sources():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)


@pytest.mark.parametrize("path", package_sources(), ids=lambda p: p.name)
def test_module_calls_no_blas(path):
    assert blas_uses(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "y = a @ w",
    "a @= b",
    "y = np.dot(a, w)",
    "y = a.dot(w)",
    "y = np.matmul(a, w)",
    "y = np.inner(a, w)",
    "y = np.vdot(a, w)",
    "y = np.tensordot(a, w, 1)",
    "c = np.cov(a, w)",
    "n = np.linalg.norm(a)",
    "from numpy.linalg import norm",
    "import numpy.linalg",
    "from numpy import dot",
    "y = np.einsum('pj,j->p', a, w, optimize=True)",
])
def test_guard_catches(snippet):
    assert blas_uses(snippet)


def test_guard_allows_plain_einsum_and_sums():
    ok = ("y = np.einsum('pj,j->p', a, w)\n"
          "z = np.einsum('jp,j->p', a, w)\n"
          "s = np.sum(a * w, axis=1)\n")
    assert blas_uses(ok) == []
