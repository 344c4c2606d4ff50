"""Command-line surface: validate, density, price, selfcheck.

Configs are JSON documents::

    {
      "model": "ou",                          # or "cir"
      "params": {"alpha": 1.0, "k": 0.5, "y0": 0.0,
                 "s0": 100.0, "r": 0.05, "T": 1.0},
      "vol_family": {"name": "reference", "c": 0.1, "m": 0.1},   # OU only
      "grid": {"n_steps": 512},               # optional
      "ensemble": {"n_paths": 50000, "seed": 1, "antithetic": false},
      "contract": {"strike": 100.0},
      "density": {"x_grid": "auto"},          # or {"min":..,"max":..,"points":..}
      "output": {"directory": "out", "format": "csv"}            # csv | json
    }

CIR configs put {"b":..,"k":..,"z0":..} in params instead. Every command
parses the whole config into one RunSpec before anything runs, so
``validate`` accepts exactly what ``density`` and ``price`` can run, and a
model-only config besides. The "density" block is read by ``density`` and
``validate`` only: ``price`` builds no density grid. Keys the parser does
not read are ignored, but "ensemble.winsorize": true is E_CONFIG: weights
are never clipped. Two such keys that older configs carry are accepted and
ignored, whatever their values: "grid.pricing_n_steps", as ``price`` reads
all three prices off the one weighted ensemble at "grid.n_steps", and
"params.mu", the objective drift, which no price under the pricing measure
reads.

Exit codes: 0 success; 1 selfcheck failure; 2 validation failure, one
``E_*`` line per violation on stdout (the model's codes include
E_FORWARD_OVERFLOW, an s0 or forward s0 e^{rT} above models.MAX_PRICE =
1e100, and the contract's E_STRIKE_TOO_LARGE, a strike above it; run
settings add E_EMPTY_ENSEMBLE,
E_INVALID_GRID, E_GRID_TOO_COARSE, E_INVALID_X_GRID, E_INVALID_SEED for a
seed outside [0, 2^64), and E_INVALID_THREADS for a --threads below 1);
3 unreadable config, missing key, wrong type or unknown choice (E_CONFIG),
outputs that cannot be written (E_OUTPUT), or arrays too large to allocate
(E_OUT_OF_MEMORY, which names the n_paths, n_steps and, for density, the
x-grid points asked for); 4 runtime guard budget exceeded
(E_FAILURE_BUDGET). Results go to stdout; ``[avgvar]`` progress lines,
E_CONFIG, E_OUTPUT, E_OUT_OF_MEMORY and E_FAILURE_BUDGET to stderr.
Nothing is written unless the parse succeeds. Outputs are byte-stable
across reruns and --threads values; floats have 17 significant digits, and
JSON outputs write a non-finite value (NaN) as null.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

# No chunk calls BLAS (tests/test_no_blas.py), and OpenBLAS would start one
# thread per core when numpy loads; it reads this only then, so it is set
# before the first numpy import. A value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__, pricing  # noqa: E402
from .density import (KDE_MIN_SAMPLES, MIN_GRID_POINTS, auto_grid,  # noqa: E402
                      kde_density, malliavin_density)
from .ensemble import CHUNK, check_threads, run_ensemble  # noqa: E402
from .errors import ConfigError, FailureBudgetExceeded, ValidationError  # noqa: E402
from .models import (CIRParams, OUParams, reference_vol_family,  # noqa: E402
                     validate_cir, validate_ou, validate_strike)
from .paths import make_grid  # noqa: E402
from .rng import NAMESPACE_DENSITY, check_seed  # noqa: E402

DEFAULT_DENSITY_STEPS = 512
LOW_SAMPLE_THRESHOLD = 1000
# above this alpha*dt the trapezoid F_n resolves the OU driver's decay time
# 1/alpha with fewer than 100 steps, and its law moves measurably against a
# fine grid's (README, "Grid resolution"); the weight is exact for F_n at any dt
ALPHA_DT_THRESHOLD = 0.01

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_GUARD = 4

_REQUIRED = object()


@dataclass(frozen=True)
class RunSpec:
    """A whole config, parsed and validated before anything runs."""

    model: object                # ValidatedOUModel or ValidatedCIRModel
    strike: float | None         # None when the config has no contract
    n_paths: int | None          # None when the config has no ensemble
    seed: int
    antithetic: bool
    n_steps: int
    x_grid: tuple | None         # (min, max, points); None: auto grid, or price
    out_dir: str
    fmt: str                     # csv | json


def _fmt(x):
    return "%.17g" % x


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not valid JSON or UTF-8
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _get(raw, path, kind, default=_REQUIRED, choices=None):
    """The config value at dotted ``path``: JSON of ``kind`` (float, int, bool,
    str or dict), one of ``choices`` if given, no loose casts; else ``default``."""
    parent, _, key = path.rpartition(".")
    block = _get(raw, parent, dict, {}) if parent else raw
    if key not in block:
        if default is _REQUIRED:
            raise ConfigError(f"missing '{path}' in config")
        return default
    value = block[key]
    if kind in (int, float):  # bool is not a number; an integer has no fraction
        ok = type(value) in (int, float) and (kind is float or value % 1 == 0)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{path} must be JSON of type {kind.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"unknown {path} {value!r}, expected one of {choices}")
    return kind(value)


def parse_config(raw, command, seed=None, out=None):
    """Parse and validate a whole config for ``command`` into a RunSpec.

    Wrong types and shapes raise ConfigError at once; out-of-range values of
    the model, contract and run settings are raised together as one
    ValidationError. ``seed`` and ``out`` override the config's values."""
    violations = []

    def check(ok, code, message):
        if not ok:
            violations.append((code, message))

    def validated(validate, *args):
        try:
            return validate(*args)
        except ValidationError as exc:
            violations.extend(exc.violations)

    def num(key, default=_REQUIRED):
        return _get(raw, f"params.{key}", float, default)

    kind = _get(raw, "model", str, choices=("ou", "cir"))
    common = {"s0": num("s0"), "r": num("r"), "T": num("T")}
    if kind == "ou":
        _get(raw, "vol_family.name", str, "reference", choices=("reference",))
        c, m = (_get(raw, f"vol_family.{key}", float, 0.1) for key in ("c", "m"))
        p = OUParams(alpha=num("alpha"), k=num("k"), y0=num("y0"), **common)
        vol = validated(reference_vol_family, c, m)
        model = None if vol is None else validated(validate_ou, p, vol)
    else:
        p = CIRParams(b=num("b"), k=num("k"), z0=num("z0"), **common)
        model = validated(validate_cir, p)

    strike = None
    if "contract" in raw or command == "price":
        strike = validated(validate_strike, _get(raw, "contract.strike", float))

    # validate accepts a model-only config; the other commands need a run
    has_run = command != "validate" or "ensemble" in raw
    n_paths = _get(raw, "ensemble.n_paths", int, _REQUIRED if has_run else None)
    check(n_paths is None or n_paths >= 1, "E_EMPTY_ENSEMBLE",
          f"n_paths must be >= 1, got {n_paths}")
    seed = _get(raw, "ensemble.seed", int, 0) if seed is None else seed
    validated(check_seed, seed)
    if _get(raw, "ensemble.winsorize", bool, False):
        raise ConfigError("ensemble.winsorize is no longer supported: weights are "
                          "never clipped, so E[delta] = 0 holds exactly")
    steps = _get(raw, "grid.n_steps", int, DEFAULT_DENSITY_STEPS)
    check(steps >= 2, "E_INVALID_GRID", f"grid.n_steps must be >= 2, got {steps}")

    x_grid = None
    if command != "price" and _get(raw, "density", dict, {}).get("x_grid", "auto") != "auto":
        x_grid = tuple(_get(raw, f"density.x_grid.{key}", t) for key, t
                       in (("min", float), ("max", float), ("points", int)))
        lo, hi, points = x_grid
        check(points >= MIN_GRID_POINTS, "E_GRID_TOO_COARSE",
              f"density.x_grid needs >= {MIN_GRID_POINTS} points, got {points}")
        check(-math.inf < lo < hi < math.inf, "E_INVALID_X_GRID",
              f"density.x_grid needs finite bounds with min < max, got [{lo}, {hi}]")

    directory = _get(raw, "output.directory", str, ".")
    fmt = _get(raw, "output.format", str, "csv", choices=("csv", "json"))
    if violations:
        raise ValidationError(violations)
    return RunSpec(model=model, strike=strike, n_paths=n_paths, seed=seed,
                   antithetic=_get(raw, "ensemble.antithetic", bool, False),
                   n_steps=steps, x_grid=x_grid, out_dir=out or directory, fmt=fmt)


def _write_rows(spec, name, header, columns):
    """Write a table, given as one array or sequence per field of
    ``header``, to ``name`` in the run's output format."""
    header = header.split()
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    os.makedirs(spec.out_dir, exist_ok=True)
    path = os.path.join(spec.out_dir, f"{name}.{spec.fmt}")
    with open(path, "w") as fh:
        if spec.fmt == "csv":
            cells = [["%.17g" % v if isinstance(v, float) else str(v) for v in column]
                     for column in columns]
            fh.write("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")
        else:
            # JSON has no NaN; a non-finite value is written as null
            json.dump([{key: None if isinstance(v, float) and not math.isfinite(v) else v
                        for key, v in zip(header, row)} for row in zip(*columns)],
                      fh, indent=1, allow_nan=False)
            fh.write("\n")
    return path


def _check_addressable(spec):
    """MemoryError, as numpy raises for an array too large to allocate, if a
    float64 array of the run needs more bytes than numpy can address, which
    it refuses with a ValueError before it tries: the ensemble's (N,)
    arrays, a chunk's whole (n+1, P) ones or the x-grid that density builds."""
    sizes = [spec.n_paths, (spec.n_steps + 1) * min(spec.n_paths, CHUNK)]
    if spec.x_grid is not None:
        sizes.append(spec.x_grid[2])
    if 8 * max(sizes) > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate {8 * max(sizes)} bytes: "
                          "more than an array can address")


def _density_stage(spec, threads):
    """Density ensemble -> W_ALPHA_DT and LOW_SAMPLE lines -> valid samples;
    returns the ensemble, its F samples and their weights."""
    print(f"[avgvar] density ensemble: {spec.n_paths} paths, n={spec.n_steps}",
          file=sys.stderr)
    result = run_ensemble(spec.model, make_grid(spec.model.params.T, spec.n_steps),
                          spec.n_paths, spec.seed, namespace=NAMESPACE_DENSITY,
                          threads=threads, antithetic=spec.antithetic)
    rate = spec.model.grid_bias_rate
    if rate is not None and rate * result.grid.dt > ALPHA_DT_THRESHOLD:
        print(f"W_ALPHA_DT alpha*dt={_fmt(rate * result.grid.dt)} > {ALPHA_DT_THRESHOLD}; "
              "the trapezoid F_n is coarse against 1/alpha; see README, Grid resolution")
    if spec.n_paths < LOW_SAMPLE_THRESHOLD:
        print(f"LOW_SAMPLE n_paths={spec.n_paths} < {LOW_SAMPLE_THRESHOLD}; "
              "density standard errors will be large")
    return (result, *result.valid_samples())


def _failures(result):
    """The failed paths of an ensemble, and under antithetic sampling the
    paths left out with a failed partner, for a progress line."""
    text = f"{result.n_failures} failed paths of {result.n_paths}"
    if result.antithetic:
        text += f", {result.n_dropped} more dropped with their failed antithetic partner"
    return text


def cmd_density(spec, threads):
    # a given x-grid is built first, so that one too large to allocate fails at once
    x_grid = None if spec.x_grid is None else np.linspace(*spec.x_grid)
    result, f_samples, weights = _density_stage(spec, threads)
    if x_grid is None:
        x_grid = auto_grid(f_samples, lower_bound=spec.model.density_lower_bound)
    print(f"[avgvar] estimating density on [{x_grid[0]:.6g}, {x_grid[-1]:.6g}] "
          f"with {x_grid.size} points", file=sys.stderr)
    paired = result.antithetic
    dens = malliavin_density(f_samples, weights, x_grid, paired)
    kde = kde_density(f_samples, x_grid, paired) if f_samples.size >= KDE_MIN_SAMPLES else None
    kde_cols = (kde.p_hat, kde.se) if kde else (np.full(x_grid.size, np.nan),) * 2
    path1 = _write_rows(spec, "density", "x p_malliavin se_malliavin p_kde se_kde",
                        [x_grid, dens.p_hat, dens.se, *kde_cols])
    path2 = _write_rows(spec, "weights", "path_index avg_variance weight denominator",
                        [range(result.n_paths), result.avg_variance,
                         result.weight, result.denominator])
    print(f"[avgvar] wrote {path1} and {path2} ({_failures(result)})", file=sys.stderr)
    duality = pricing.mc_estimate(f_samples * weights).value
    print(f"summary normalization={_fmt(dens.normalization)} mean_weight="
          f"{_fmt(pricing.mc_estimate(weights).value)} duality={_fmt(duality)}")
    return EXIT_OK


def cmd_price(spec, threads):
    """All three prices are functions of F alone, so they read one ensemble:
    the weighted one's valid paths, with one terminal asset draw each."""
    result = _density_stage(spec, threads)[0]
    estimates = pricing.ensemble_prices(result, spec.strike, spec.model.params)
    path = _write_rows(spec, "prices", "method value se ci_lo ci_hi",
                       zip(*[(e.method, e.value, e.std_error, *e.ci95) for e in estimates]))
    print(f"[avgvar] wrote {path} ({_failures(result)})", file=sys.stderr)
    for e in estimates:
        print(f"{e.method} value={_fmt(e.value)} se={_fmt(e.std_error)}")
    return EXIT_OK


def cmd_selfcheck(args):
    # only this command loads the battery and its reference oracles
    from .selfcheck import SEED, format_table, run_battery
    seed = SEED if args.seed is None else args.seed
    check_seed(seed)
    rows = run_battery(seed=seed, threads=args.threads)
    print(format_table(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_SELFCHECK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="avgvar",
        description="Averaged-variance densities and option prices under "
                    "OU and CIR stochastic volatility")
    parser.add_argument("--version", action="version", version=f"avgvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_config=True):
        if needs_config:
            sp.add_argument("--config", required=True, help="path to JSON config")
            sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads, at least 1 (never changes output "
                             "bytes); below 1 exits 2 with E_INVALID_THREADS")
        sp.add_argument("--seed", type=int, default=None, help="seed override, in [0, 2^64)")

    sp = sub.add_parser("validate", help="validate a config; exit 0 iff usable")
    sp.add_argument("--config", required=True)
    sp.set_defaults(seed=None, out=None)
    common(sub.add_parser("density", help="estimate the averaged-variance density"))
    common(sub.add_parser("price", help="price a European call three ways"))
    common(sub.add_parser("selfcheck", help="run the reduced-size correctness battery"),
           needs_config=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    spec = None
    try:
        if args.command != "validate":
            check_threads(args.threads)
        if args.command == "selfcheck":
            return cmd_selfcheck(args)
        spec = parse_config(load_config(args.config), args.command,
                            seed=args.seed, out=args.out)
        if args.command == "validate":
            print("VALID")
            return EXIT_OK
        _check_addressable(spec)
        return (cmd_density if args.command == "density" else cmd_price)(spec, args.threads)
    except ConfigError as exc:
        print(f"E_CONFIG {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:  # load_config reports read errors as ConfigError
        print(f"E_OUTPUT cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        for code, msg in exc.violations:
            print(f"{code} {msg}")
        return EXIT_VALIDATION
    except FailureBudgetExceeded as exc:
        print(f"E_FAILURE_BUDGET {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        asked = "" if spec is None else f"n_paths={spec.n_paths} n_steps={spec.n_steps}"
        if asked and args.command == "density":
            asked += f" x_grid_points={'auto' if spec.x_grid is None else spec.x_grid[2]}"
        print(f"E_OUT_OF_MEMORY {asked}{': ' if asked else ''}{exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
