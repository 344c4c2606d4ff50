"""perfbench/trace.py still reaches every layer it times.

The tracer wraps module globals by name: ``paths.simulate_*_paths``,
``paths.sample_terminal_asset``, ``ensemble.skorokhod_weight_*``,
``weights_cir.cir_kernel`` and the ``pricing.price_*`` functions, and the
noise stream's ``NoiseStream.normal_matrix`` and ``NoiseStream._rewind``.
A rename, or a call that goes round one of those names, leaves its span
or count at zero without failing anything else, so each model's density
command is traced here and its spans must have run, and so is the OU
price command, whose three pricers have spans of their own. Every
ensemble, the density command's too, draws its terminal asset: the vol
stream draws each step normal of each path once and starts each 256-path
block's generator once, and the asset stream draws one more normal per
path and starts each block once more.
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
SPANS = ("rng.normal_matrix", "paths.simulate", "paths.terminal_asset", "ensemble.run")


def _trace(tmp_path, command, model):
    """(config, trace) of ``command`` on the test config of ``model``, run
    under perfbench/trace.py."""
    cfg = write_config(tmp_path, **(cir_overrides() if model == "cir" else {}))
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(trace),
         command, "--config", cfg, "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spec = json.loads(Path(cfg).read_text())
    return spec, json.loads(trace.read_text())


def _assert_draws(spec, traced):
    """One normal per step and one asset normal per path; each block's
    generator started once per stream."""
    n_paths, n_steps = spec["ensemble"]["n_paths"], spec["grid"]["n_steps"]
    assert traced["counts"]["rng.normals"] == n_steps * n_paths + n_paths
    assert traced["counts"]["rng.rewinds"] == 2 * -(-n_paths // BLOCK)


def _assert_spans_ran(traced, names):
    total_s = traced["total_s"]
    for name in names:
        assert total_s.get(name, 0.0) > 0.0, (name, sorted(total_s))


@pytest.mark.parametrize("model, weight_spans", [
    ("ou", ("weights_ou.weight",)),
    ("cir", ("weights_cir.kernel", "weights_cir.weight")),
])
def test_trace_times_every_layer_of_a_density_run(tmp_path, model, weight_spans):
    spec, traced = _trace(tmp_path, "density", model)
    _assert_spans_ran(traced, SPANS + weight_spans)
    _assert_draws(spec, traced)


def test_trace_times_the_asset_draw_and_pricers_of_a_price_run(tmp_path):
    """The price command draws as the density command does, and prices."""
    spec, traced = _trace(tmp_path, "price", "ou")
    _assert_spans_ran(traced, SPANS + ("weights_ou.weight", "pricing.density_quadrature",
                                       "pricing.mixing", "pricing.plain_mc"))
    _assert_draws(spec, traced)
