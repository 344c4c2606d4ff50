"""perfbench/trace.py still reaches every layer it times.

The tracer wraps module globals by name: ``paths.simulate_*_paths``,
``ensemble.skorokhod_weight_*`` and ``weights_cir.cir_kernel``, and the
noise stream's ``NoiseStream.normal_matrix`` and ``NoiseStream._rewind``.
A rename, or a call that goes round one of those names, leaves its span
or count at zero without failing anything else, so each model's density
command is traced here and its spans must have run. The stream draws
each step normal of each path once and starts each 256-path block's
generator once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from avgvar.rng import BLOCK
from test_cli import cir_overrides, write_config

ROOT = Path(__file__).resolve().parents[1]
SPANS = ("rng.normal_matrix", "paths.simulate", "ensemble.run")


@pytest.mark.parametrize("model, weight_spans", [
    ("ou", ("weights_ou.weight",)),
    ("cir", ("weights_cir.kernel", "weights_cir.weight")),
])
def test_trace_times_every_layer_of_a_density_run(tmp_path, model, weight_spans):
    cfg = write_config(tmp_path, **(cir_overrides() if model == "cir" else {}))
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(trace),
         "density", "--config", cfg, "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(trace.read_text())
    total_s = traced["total_s"]
    for name in SPANS + weight_spans:
        assert total_s.get(name, 0.0) > 0.0, (name, sorted(total_s))
    spec = json.loads(Path(cfg).read_text())
    n_paths, n_steps = spec["ensemble"]["n_paths"], spec["grid"]["n_steps"]
    assert traced["counts"]["rng.normals"] == n_steps * n_paths
    assert traced["counts"]["rng.rewinds"] == -(-n_paths // BLOCK)
