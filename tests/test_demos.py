"""The demos run against the current package API.

A demo reaches into the weight's internals, so a renamed or removed helper
would break it without breaking any other test. Demo 04 runs in under a
second and writes no files. Demos 01-03 simulate tens of thousands of
paths, so for them only the names they import from avgvar are checked.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_weights_under_the_hood_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_weights_under_the_hood.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "brute-force check" in out
    assert "byte-identical" in out and "MISMATCH" not in out
    assert "path 1234 standalone: avg_variance and weight equal the ensemble's exactly" in out


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_exist(demo):
    tree = ast.parse((DEMOS / demo).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "avgvar"]
    assert imports, demo
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{demo}: {node.module} has no {missing}"
