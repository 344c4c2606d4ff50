"""What a command loads before it simulates anything.

Every ``avgvar`` command starts a fresh interpreter and pays for what it
imports, so ``import avgvar`` loads no numpy, ``validate`` loads neither
numpy.random nor concurrent.futures, ``density`` does not load numpy.ma,
no command nor the self check loads scipy, which only the tests depend on,
only ``selfcheck`` loads the battery and its dense oracles, and
``avgvar.cli`` caps OpenBLAS at one thread before numpy starts it. This
test session has long since imported all of these, so each check runs in
a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(code, **env_changes):
    """Standard output of ``python -c code`` with ``src`` on PYTHONPATH;
    an ``env_changes`` value of None removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_avgvar_loads_no_numpy():
    assert run_python("import sys, avgvar; print('numpy' in sys.modules)") == ["False"]


def test_every_exported_name_resolves():
    out = run_python("import avgvar\n"
                     "for name in avgvar.__all__:\n"
                     "    assert getattr(avgvar, name).__name__ == name, name\n"
                     "print(len(avgvar.__all__))")
    assert int(out[0]) > 40


def test_submodules_import_and_unknown_names_raise():
    out = run_python("import avgvar\n"
                     "from avgvar import ensemble\n"
                     "print(ensemble.__name__)\n"
                     "try:\n"
                     "    avgvar.no_such_name\n"
                     "except AttributeError:\n"
                     "    print('AttributeError')\n")
    assert out == ["avgvar.ensemble", "AttributeError"]


@pytest.mark.parametrize("config", ["config_ou.json", "config_cir.json"])
def test_validate_loads_no_random_generator_or_thread_pool(config):
    out = run_python("import sys\n"
                     "import avgvar.cli as cli\n"
                     f"code = cli.main(['validate', '--config', 'demos/{config}'])\n"
                     "print(code, [m for m in ('numpy.random', 'concurrent.futures')\n"
                     "             if m in sys.modules])")
    assert out == ["VALID", "0", "[]"]


def small_config(tmp_path, demo="config_ou.json"):
    """The path of ``demo`` at 300 paths and 32 steps, writing under tmp_path."""
    config = json.loads((ROOT / "demos" / demo).read_text())
    config["ensemble"]["n_paths"] = 300
    config["grid"]["n_steps"] = 32
    config["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / demo
    path.write_text(json.dumps(config))
    return path


def test_density_does_not_load_numpy_ma(tmp_path):
    """numpy's percentile imports numpy.ma on its first call (about 10 ms);
    the density grid's percentiles go around it."""
    path = small_config(tmp_path)
    out = run_python("import sys\n"
                     "import avgvar.cli as cli\n"
                     f"code = cli.main(['density', '--config', {str(path)!r}])\n"
                     "print(code, 'numpy.ma' in sys.modules)")
    assert out[-2:] == ["0", "False"]


@pytest.mark.parametrize("demo", ["config_ou.json", "config_cir.json"])
def test_commands_and_the_self_check_load_no_scipy(tmp_path, demo):
    """scipy is a test-only dependency: density, price and the self check's
    module run on numpy alone."""
    path = str(small_config(tmp_path, demo))
    out = run_python("import sys\n"
                     "import avgvar.cli as cli\n"
                     "import avgvar.selfcheck\n"
                     f"print(cli.main(['density', '--config', {path!r}]),\n"
                     f"      cli.main(['price', '--config', {path!r}]),\n"
                     "      'scipy' in sys.modules)")
    assert out[-3:] == ["0", "0", "False"]


@pytest.mark.parametrize("demo", ["config_ou.json", "config_cir.json"])
def test_commands_other_than_selfcheck_load_no_battery(tmp_path, demo):
    """validate, density and price load neither the self check nor the
    dense oracles it alone reads."""
    path = str(small_config(tmp_path, demo))
    out = run_python("import sys\n"
                     "import avgvar.cli as cli\n"
                     f"print(*(cli.main([c, '--config', {path!r}])\n"
                     "        for c in ('validate', 'density', 'price')),\n"
                     "      [m for m in ('avgvar.selfcheck', 'avgvar.reference')\n"
                     "       if m in sys.modules])")
    assert out[-4:] == ["0", "0", "0", "[]"]


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_cli_caps_openblas_threads_before_numpy_loads(preset, seen):
    # the value OpenBLAS reads is the one set when numpy is first imported
    out = run_python("import os, sys\n"
                     "class Spy:\n"
                     "    def find_spec(self, name, path=None, target=None):\n"
                     "        if name == 'numpy':\n"
                     "            print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                     "sys.meta_path.insert(0, Spy())\n"
                     "import avgvar.cli\n"
                     "print(os.environ['OPENBLAS_NUM_THREADS'])",
                     OPENBLAS_NUM_THREADS=preset)
    assert out == [seen, seen]
