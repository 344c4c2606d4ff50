"""The demos run against the current package API.

A demo reaches into the weight's internals, so a renamed or removed helper
would break it without breaking any other test. Demo 04 runs in under a
second and writes no files.
"""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_weights_under_the_hood_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_weights_under_the_hood.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "brute-force check" in out
    assert "byte-identical" in out and "MISMATCH" not in out
