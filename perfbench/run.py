"""Benchmark of `avgvar density` and `avgvar price` on one worker thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Each round spawns the workload's CLI
command (`python -m avgvar.cli` with `src` on PYTHONPATH and `--threads 1`)
in a fresh interpreter with the user's environment, checks its outputs
against values computed apart from the program (see checks.py), and
rounds repeat until S seconds have passed. Round r passes the program
`--seed N*1000+r`, so a run's inputs follow from N alone, and the
time-to-accuracy figure pools the standard errors of several independent
ensembles instead of resting on one. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics; each round also spawns
`avgvar validate` SETUP_SPAWNS times to time set-up. --trace 1 runs the
same command under perfbench/trace.py instead, which times each layer
in-process, and reports the per-layer metrics. The two modes never share
a run, so tracing adds nothing to the end-to-end figures.

Every command is one operation. It fails on a nonzero exit or on any
failed output check. `correct` is false when a command that exited 0
failed a check, or when a statistical check fails on the mean over all of
the run's rounds.
"""

import argparse
import collections
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

SETUP_SPAWNS = 2
SEEDS_PER_RUN = 1000  # round r of a run with --seed N gives the program N*1000+r
STRIKE = 100.0

# the models of demos/config_ou.json and demos/config_cir.json
OU_MODEL = {"kind": "ou", "n_steps": 512, "pricing_n_steps": 256,
            "params": {"alpha": 1.0, "k": 0.5, "y0": 0.0, "s0": 100.0,
                       "r": 0.05, "mu": 0.05, "T": 1.0},
            "vol": {"c": 0.1, "m": 0.1}}
CIR_MODEL = {"kind": "cir", "n_steps": 512, "pricing_n_steps": 256,
             "params": {"b": 1.0, "k": 0.25, "z0": 1.0, "s0": 100.0,
                        "r": 0.05, "mu": 0.05, "T": 1.0}}

N_PATHS = 8192  # four chunks of 2048 paths

# se_target: the standard error that time_to_accuracy_s is scaled to
WORKLOADS = {
    "ou-density": {"command": "density", "model": OU_MODEL, "se_target": 0.5},
    "cir-density": {"command": "density", "model": CIR_MODEL, "se_target": 0.05},
    "ou-price": {"command": "price", "model": OU_MODEL, "se_target": 0.1},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "time_to_accuracy_s": "s"}


def cli_config(model, n_paths, seed):
    """The avgvar config document for a model."""
    block = {"model": model["kind"], "params": model["params"],
             "grid": {"n_steps": model["n_steps"],
                      "pricing_n_steps": model["pricing_n_steps"]},
             "ensemble": {"n_paths": n_paths, "seed": seed},
             "contract": {"strike": STRIKE},
             "density": {"x_grid": "auto"},
             "output": {"format": "csv"}}
    if model["kind"] == "ou":
        block["vol_family"] = {"name": "reference", **model["vol"]}
    return block


Proc = collections.namedtuple("Proc", "code wall cpu rss_mb")


def spawn(argv, log_path):
    """Run argv to its end; returns its exit code, wall and CPU seconds and
    peak resident memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def check_outputs(wl, out_dir):
    """Run the workload's output checks; returns (CheckLog, accuracy se)."""
    log = checks.CheckLog()
    try:
        if wl["command"] == "density":
            se = checks.check_density_outputs(out_dir, wl["model"], N_PATHS, log)
        else:
            se = checks.check_price_outputs(out_dir, wl["model"], STRIKE, log)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        log.add("outputs.readable", False, repr(exc))
        se = float("nan")
    return log, se


class Run:
    """Operation counts and per-round figures of one benchmark run."""

    def __init__(self, name, seed, threads, work_dir):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.threads = threads
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.config = os.path.join(work_dir, "config.json")
        with open(self.config, "w") as fh:
            json.dump(cli_config(self.wl["model"], N_PATHS, seed), fh)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples = collections.defaultdict(list)
        self.pooled = collections.defaultdict(list)
        self.units = {}

    def cli_args(self):
        seed = self.seed * SEEDS_PER_RUN + self.rounds
        return [self.wl["command"], "--config", self.config, "--out", self.out_dir,
                "--threads", str(self.threads), "--seed", str(seed)]

    def command(self, argv):
        """Spawn the workload command on a clean output directory and check
        its outputs; returns its Proc, or None if it failed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        log_path = os.path.join(self.work_dir, "command.log")
        proc = spawn(argv, log_path)
        if proc.code != 0:
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            print(f"{self.name}: exit {proc.code}\n{tail}", file=sys.stderr)
            self.failed += 1
            return None
        log, se = check_outputs(self.wl, self.out_dir)
        if log.failed:
            for name, _, detail in log.failed:
                print(f"{self.name}: check {name} failed: {detail}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        for name, pair in log.pooled.items():
            self.pooled[name].append(pair)
        self.samples["se_sq"].append(se * se)
        return proc

    def setup_round(self):
        argv = [sys.executable, "-m", "avgvar.cli", "validate", "--config", self.config]
        log_path = os.path.join(self.work_dir, "validate.log")
        for _ in range(SETUP_SPAWNS):
            self.attempted += 1
            proc = spawn(argv, log_path)
            with open(log_path) as fh:
                valid = fh.read().strip() == "VALID"
            if proc.code != 0 or not valid:
                print(f"{self.name}: validate failed, exit {proc.code}", file=sys.stderr)
                self.failed += 1
            else:
                self.samples["setup_s"].append(proc.wall)

    def plain_round(self):
        self.setup_round()
        done = self.command([sys.executable, "-m", "avgvar.cli"] + self.cli_args())
        if done is not None:
            self.samples["wall_s"].append(done.wall)
            self.samples["cpu_s"].append(done.cpu)
            self.samples["peak_rss_mb"].append(done.rss_mb)
        self.rounds += 1

    def traced_round(self):
        trace_path = os.path.join(self.work_dir, "trace.json")
        done = self.command([sys.executable, os.path.join(HERE, "trace.py"),
                             trace_path] + self.cli_args())
        self.rounds += 1
        if done is None:
            return
        with open(trace_path) as fh:
            trace = json.load(fh)
        for key, (value, unit) in layer_metrics(trace, done, self.out_dir).items():
            self.samples[key].append(value)
            self.units[key] = unit
        shutil.copy(trace_path, os.path.join(RUNS, f"trace-{self.name}-s{self.seed}.json"))

    def end_to_end(self):
        m = {key: statistics.median(v) for key, v in self.samples.items()}
        se_sq = statistics.fmean(self.samples["se_sq"])
        m["time_to_accuracy_s"] = m["wall_s"] * se_sq / self.wl["se_target"] ** 2
        return {key: (m[key], unit) for key, unit in END_TO_END_UNITS.items()}

    def per_layer(self):
        """Times and ratios as medians over rounds; counts and bytes from the
        first round, so they follow from --seed alone."""
        return {key: (self.samples[key][0] if unit in ("count", "bytes")
                      else statistics.median(self.samples[key]), unit)
                for key, unit in self.units.items()}


def layer_metrics(trace, proc, out_dir):
    """Per-layer metrics of one traced command, as {name: (value, unit)}.

    ``cli.interpreter_s`` is the time the process lived outside trace.py:
    interpreter start-up before its first line and shutdown after its last.
    """
    own = trace["self_s"]
    total = trace["total_s"]
    counts = trace["counts"]

    def s(name):
        return own.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    nodes = counts.get("paths.nodes", 0)
    ou_nodes = counts.get("weights_ou.nodes", 0)
    cir_nodes = counts.get("weights_cir.nodes", 0)
    n_paths = counts.get("ensemble.paths", 0)
    failed = counts.get("ensemble.failed_paths", 0)
    written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    interpreter = proc.wall - (trace["finished"] - trace["started"])
    covered = interpreter + trace["import_s"] + sum(own.values())
    return {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (trace["import_s"], "s"),
        "cli.self_s": (s("cli.main"), "s"),
        "cli.bytes_written": (written, "bytes"),
        "rng.normal_matrix_s": (s("rng.normal_matrix"), "s"),
        "rng.normals": (counts.get("rng.normals", 0), "count"),
        "rng.rewinds": (counts.get("rng.rewinds", 0), "count"),
        "rng.normals_per_rewind": (ratio(counts.get("rng.normals", 0),
                                         counts.get("rng.rewinds", 0)), "ratio"),
        "paths.simulate_s": (s("paths.simulate"), "s"),
        "paths.terminal_asset_s": (s("paths.terminal_asset"), "s"),
        "paths.nodes": (nodes, "count"),
        "paths.ns_per_node": (1e9 * ratio(s("paths.simulate"), nodes), "ns"),
        "models.vol_eval_s": (s("models.vol_eval"), "s"),
        "models.vol_evals_per_node": (ratio(counts.get("models.vol_evals", 0), nodes),
                                      "ratio"),
        "ensemble.run_s": (total.get("ensemble.run", 0.0), "s"),
        "ensemble.self_s": (s("ensemble.run"), "s"),
        "ensemble.paths": (n_paths, "count"),
        "ensemble.failed_paths": (failed, "count"),
        "ensemble.valid_fraction": (ratio(n_paths - failed, n_paths), "ratio"),
        "weights_ou.weight_s": (s("weights_ou.weight"), "s"),
        "weights_ou.ns_per_node": (1e9 * ratio(s("weights_ou.weight"), ou_nodes), "ns"),
        "weights_cir.kernel_s": (s("weights_cir.kernel"), "s"),
        "weights_cir.weight_s": (s("weights_cir.weight"), "s"),
        "weights_cir.ns_per_node": (1e9 * ratio(s("weights_cir.kernel")
                                                + s("weights_cir.weight"), cir_nodes),
                                    "ns"),
        "density.malliavin_s": (s("density.malliavin"), "s"),
        "density.kde_s": (s("density.kde"), "s"),
        "density.grid_s": (s("density.grid"), "s"),
        "pricing.density_quadrature_s": (s("pricing.density_quadrature"), "s"),
        "pricing.mixing_s": (s("pricing.mixing"), "s"),
        "pricing.plain_mc_s": (s("pricing.plain_mc"), "s"),
        "trace.wall_s": (proc.wall, "s"),
        "trace.coverage": (covered / proc.wall, "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads of the program (1 for gated runs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "avgvar", "cli.py")):
        print(f"no avgvar sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    # byte-compile once, so no timed interpreter pays for it
    compileall.compile_dir(os.path.join(SRC, "avgvar"), quiet=1)
    os.makedirs(RUNS, exist_ok=True)
    work_dir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        run = Run(args.workload, args.seed, args.threads, work_dir)
        deadline = time.perf_counter() + args.seconds
        while True:
            run.traced_round() if args.trace else run.plain_round()
            if time.perf_counter() >= deadline:
                break
        if not run.samples["se_sq"]:
            print(f"{args.workload}: no command succeeded", file=sys.stderr)
            return 1
        for name, detail in checks.pooled_failures(run.pooled):
            print(f"{args.workload}: pooled check {name} failed: {detail}", file=sys.stderr)
            run.correct = False
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
