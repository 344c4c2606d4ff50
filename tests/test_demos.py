"""The demos run against the current package API.

A demo reaches into the weight's internals or reads the package's
estimates by name, so a renamed or removed helper would break it without
breaking any other test. Each demo runs end to end in about a second and
writes no files.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("demo", ["01_ou_density.py", "02_cir_density.py"])
def test_density_demo_runs(demo, capsys):
    out = run_demo(demo, capsys)
    for line in ("mean weight", "duality E[F d]", "normalization", "p_malliavin"):
        assert line in out, line


def test_price_three_ways_demo_runs(capsys):
    out = run_demo("03_price_three_ways.py", capsys)
    for method in ("density_quadrature", "mixing_mc", "plain_mc", "martingale_check"):
        assert out.count(method) == 2, method
    assert out.count("worst pairwise z:") == 2
    assert "DISAGREE" not in out


def test_weights_under_the_hood_demo_runs(capsys):
    out = run_demo("04_weights_under_the_hood.py", capsys)
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
