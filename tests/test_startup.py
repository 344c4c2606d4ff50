"""What a command loads before it simulates anything.

Every ``avgvar`` command starts a fresh interpreter and pays for what it
imports, so ``import avgvar`` loads no numpy, ``validate`` loads neither
numpy.random nor concurrent.futures, ``density`` does not load numpy.ma,
and ``avgvar.cli`` caps OpenBLAS at one thread before numpy starts it. This test session has long since
imported all of these, so each check runs in a fresh interpreter.
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


def test_density_does_not_load_numpy_ma(tmp_path):
    """numpy's percentile imports numpy.ma on its first call (about 10 ms);
    the density grid's percentiles go around it."""
    config = json.loads((ROOT / "demos" / "config_ou.json").read_text())
    config["ensemble"]["n_paths"] = 300
    config["grid"]["n_steps"] = 32
    config["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = run_python("import sys\n"
                     "import avgvar.cli as cli\n"
                     f"code = cli.main(['density', '--config', {str(path)!r}])\n"
                     "print(code, 'numpy.ma' in sys.modules)")
    assert out[-2:] == ["0", "False"]


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
