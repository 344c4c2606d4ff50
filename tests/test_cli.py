import dataclasses
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import avgvar.cli as cli
import avgvar.ensemble as ensemble
import avgvar.pricing as pricing
import avgvar.selfcheck as selfcheck
from avgvar.paths import make_grid
from avgvar.rng import NAMESPACE_DENSITY

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": "ou",
        "params": {"alpha": 1.0, "k": 0.5, "y0": 0.0, "s0": 100.0,
                   "r": 0.05, "mu": 0.05, "T": 1.0},
        "vol_family": {"name": "reference", "c": 0.1, "m": 0.1},
        "grid": {"n_steps": 64},
        "ensemble": {"n_paths": 600, "seed": 11, "antithetic": False},
        "contract": {"strike": 100.0},
        "density": {"x_grid": "auto"},
        "output": {"directory": str(tmp_path / "out"), "format": "csv"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def cir_overrides(**params):
    base = {"b": 1.0, "k": 0.25, "z0": 1.0, "s0": 100.0, "r": 0.05,
            "mu": 0.05, "T": 1.0}
    base.update(params)
    return {"model": "cir", "params": base}


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["validate", "--config", cfg]) == 0
    assert "VALID" in capsys.readouterr().out


def test_validate_density_condition_line(tmp_path, capsys):
    cfg = write_config(tmp_path, **cir_overrides(k=1.2))
    assert cli.main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "E_DENSITY_CONDITION 6*k^2 >= b" in out


def test_validate_accepts_model_only_config(tmp_path):
    path = tmp_path / "model_only.json"
    path.write_text(json.dumps(cir_overrides()))
    assert cli.main(["validate", "--config", str(path)]) == 0


def test_validate_feller_line(tmp_path, capsys):
    cfg = write_config(tmp_path, **cir_overrides(b=0.5, k=1.1))
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "E_FELLER" in capsys.readouterr().out


def test_missing_file_is_io_error(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


def test_malformed_json_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["validate", "--config", str(bad)]) == 3


def test_non_numeric_param_is_io_error(tmp_path):
    cfg = write_config(tmp_path, params={"alpha": "fast", "k": 0.5, "y0": 0.0,
                                         "s0": 100.0, "r": 0.05, "mu": 0.05,
                                         "T": 1.0})
    assert cli.main(["validate", "--config", cfg]) == 3
    cfg = write_config(tmp_path, name="c2.json", contract={"strike": "atm"})
    assert cli.main(["validate", "--config", cfg]) == 3


@pytest.mark.parametrize("command", ["density", "price"])
@pytest.mark.parametrize("via", ["config", "--out"])
def test_output_directory_that_is_a_file_is_io_error(tmp_path, capsys, command, via):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if via == "config":
        argv = ["--config", write_config(tmp_path, output={"directory": str(taken)})]
    else:
        argv = ["--config", write_config(tmp_path), "--out", str(taken)]
    assert cli.main([command, *argv]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("E_")]
    assert len(errors) == 1 and errors[0].startswith("E_OUTPUT cannot write outputs: ")
    assert taken.read_text() == "not a directory\n"


def test_density_command_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["density", "--config", cfg, "--threads", "2"]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "LOW_SAMPLE" in out  # 600 < 1000
    assert "summary normalization=" in out
    assert "[avgvar]" not in out and "[avgvar] wrote" in captured.err
    dens = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert dens[0] == "x,p_malliavin,se_malliavin,p_kde,se_kde"
    assert len(dens) == 42  # header + 41 grid rows
    weights = (tmp_path / "out" / "weights.csv").read_text().splitlines()
    assert weights[0] == "path_index,avg_variance,weight,denominator"
    assert len(weights) == 601


@pytest.mark.parametrize("n_steps, warned", [(64, True), (128, False)])
def test_density_warns_when_alpha_dt_exceeds_threshold(tmp_path, capsys, n_steps, warned):
    cfg = write_config(tmp_path, grid={"n_steps": n_steps})
    assert cli.main(["density", "--config", cfg]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("W_ALPHA_DT ")]
    assert lines == (["W_ALPHA_DT alpha*dt=0.015625 > 0.01; the trapezoid F_n is coarse "
                      "against 1/alpha; see README, Grid resolution"] if warned else [])


MALFORMED = {
    "n_paths_zero": ({"ensemble": {"n_paths": 0}}, 2, "E_EMPTY_ENSEMBLE"),
    "n_steps_one": ({"grid": {"n_steps": 1}}, 2, "E_INVALID_GRID"),
    "n_steps_text": ({"grid": {"n_steps": "abc"}}, 3, "E_CONFIG"),
    "grid_list": ({"grid": []}, 3, "E_CONFIG"),
    "vol_family_text": ({"vol_family": "reference"}, 3, "E_CONFIG"),
    "x_grid_5_points": ({"density": {"x_grid": {"min": 0.01, "max": 0.1, "points": 5}}},
                        2, "E_GRID_TOO_COARSE"),
    "x_grid_text": ({"density": {"x_grid": "fine"}}, 3, "E_CONFIG"),
    "x_grid_decreasing": ({"density": {"x_grid": {"min": 0.1, "max": 0.01, "points": 41}}},
                          2, "E_INVALID_X_GRID"),
    "x_grid_infinite": ({"density": {"x_grid": {"min": 0.01, "max": float("inf"),
                                                "points": 41}}}, 2, "E_INVALID_X_GRID"),
    # "density_mode" is not read: validate checks what density and price check
    "density_mode_off": ({**cir_overrides(k=1.2), "density_mode": False},
                         2, "E_DENSITY_CONDITION"),
    "winsorize_on": ({"ensemble": {"n_paths": 600, "winsorize": True}}, 3, "E_CONFIG"),
}


@pytest.mark.parametrize("overrides, code, line", MALFORMED.values(), ids=MALFORMED)
def test_malformed_config_fails_before_simulating(tmp_path, capsys, monkeypatch,
                                                  overrides, code, line):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran before the config was rejected")
    monkeypatch.setattr(cli, "run_ensemble", no_ensemble)
    cfg = write_config(tmp_path, **overrides)
    for command in ("validate", "density", "price"):
        assert cli.main([command, "--config", cfg]) == code, command
        captured = capsys.readouterr()
        stream = captured.out if code == 2 else captured.err
        assert any(text.startswith(line + " ") for text in stream.splitlines()), command
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("demo, r", [("config_ou.json", 1000.0), ("config_cir.json", 800.0)])
def test_a_forward_beyond_the_float_range_is_a_violation(tmp_path, capsys, monkeypatch,
                                                         demo, r):
    """A demo config whose forward s0 e^{rT} overflows a float fails every
    command with exit 2, as price could not compute it."""
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran before the config was rejected")
    monkeypatch.setattr(cli, "run_ensemble", no_ensemble)
    cfg = json.loads((DEMOS / demo).read_text())
    cfg["params"]["r"] = r
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / demo
    path.write_text(json.dumps(cfg))
    for command in ("validate", "density", "price"):
        assert cli.main([command, "--config", str(path)]) == 2, command
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == [
            "E_FORWARD_OVERFLOW"], command
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("command", ["density", "price", "selfcheck"])
def test_threads_below_one_fail_before_simulating(tmp_path, capsys, monkeypatch,
                                                  command, threads):
    def no_run(*args, **kwargs):
        raise AssertionError("work started before --threads was rejected")
    monkeypatch.setattr(cli, "run_ensemble", no_run)
    monkeypatch.setattr(cli, "run_battery", no_run)
    argv = [command, "--threads", threads]
    if command != "selfcheck":
        argv += ["--config", write_config(tmp_path)]
    assert cli.main(argv) == 2
    assert (f"E_INVALID_THREADS --threads must be >= 1, got {threads}"
            in capsys.readouterr().out.splitlines())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
@pytest.mark.parametrize("command", ["density", "price", "selfcheck"])
def test_seed_outside_the_key_range_fails_before_simulating(tmp_path, capsys, monkeypatch,
                                                            command, seed):
    """--seed 2^64 + 1 would draw the noise of seed 1, and -1 that of 2^64 - 1."""
    def no_run(*args, **kwargs):
        raise AssertionError("work started before --seed was rejected")
    monkeypatch.setattr(cli, "run_ensemble", no_run)
    monkeypatch.setattr(cli, "run_battery", no_run)
    argv = [command, "--seed", seed]
    if command != "selfcheck":
        argv += ["--config", write_config(tmp_path)]
    assert cli.main(argv) == 2
    assert (f"E_INVALID_SEED seed must be an integer in [0, 2^64), got {seed}"
            in capsys.readouterr().out.splitlines())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-5, 2**64])
def test_config_seed_outside_the_key_range_is_a_violation(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, ensemble={"n_paths": 600, "seed": seed})
    for command in ("validate", "density"):
        assert cli.main([command, "--config", cfg]) == 2
        assert capsys.readouterr().out.startswith("E_INVALID_SEED ")
    assert not (tmp_path / "out").exists()


def test_density_validation_failure_writes_nothing(tmp_path):
    cfg = write_config(tmp_path, **cir_overrides(k=1.2))
    assert cli.main(["density", "--config", cfg]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [{}, cir_overrides()], ids=["ou", "cir"])
def test_density_outputs_bit_identical_across_threads_and_seed_changes_them(tmp_path,
                                                                           overrides):
    cfg = write_config(tmp_path, **overrides)
    outs = []
    for threads in ("1", "2", "4"):
        out_dir = tmp_path / f"run{threads}"
        assert cli.main(["density", "--config", cfg, "--threads", threads,
                         "--out", str(out_dir)]) == 0
        outs.append((out_dir / "density.csv").read_bytes()
                    + (out_dir / "weights.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    other = tmp_path / "seeded"
    assert cli.main(["density", "--config", cfg, "--seed", "999",
                     "--out", str(other)]) == 0
    assert (other / "weights.csv").read_bytes() != outs[0]


def test_density_json_format(tmp_path):
    cfg = write_config(tmp_path, output={"directory": str(tmp_path / "j"),
                                         "format": "json"})
    assert cli.main(["density", "--config", cfg]) == 0
    rows = json.loads((tmp_path / "j" / "density.json").read_text())
    assert len(rows) == 41
    assert set(rows[0]) == {"x", "p_malliavin", "se_malliavin", "p_kde", "se_kde"}


def no_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_json_outputs_are_strict_json_with_null_for_nan(tmp_path):
    """At 50 paths the KDE columns are NaN; JSON has no NaN, so they are null."""
    out = tmp_path / "j"
    cfg = write_config(tmp_path, ensemble={"n_paths": 50, "seed": 3},
                       output={"directory": str(out), "format": "json"})
    for command in ("density", "price"):
        assert cli.main([command, "--config", cfg]) == 0
    for name in ("density", "weights", "prices"):
        rows = json.loads((out / f"{name}.json").read_text(), parse_constant=no_constant)
        assert rows, name
    density = json.loads((out / "density.json").read_text())
    assert all(row["p_kde"] is None and row["se_kde"] is None for row in density)
    assert all(isinstance(row["p_malliavin"], float) for row in density)


def test_price_command(tmp_path, capsys):
    cfg = write_config(tmp_path, ensemble={"n_paths": 2000, "seed": 3})
    assert cli.main(["price", "--config", cfg, "--threads", "2"]) == 0
    lines = (tmp_path / "out" / "prices.csv").read_text().splitlines()
    assert lines[0] == "method,value,se,ci_lo,ci_hi"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["density_quadrature", "mixing_mc", "plain_mc",
                       "martingale_check"]
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in lines[1:]}
    # triangle: all three price rows in a loose common band at small N
    vals = [rows[m][0] for m in ("density_quadrature", "mixing_mc", "plain_mc")]
    assert max(vals) - min(vals) < 2.0
    mart = rows["martingale_check"]
    assert abs(mart[0] - 100.0) < 4 * mart[1]


def test_price_outputs_bit_identical_across_threads(tmp_path):
    # three chunks per ensemble, split between 2 workers or fewer chunks
    # than workers at 4 and 8
    cfg = write_config(tmp_path, ensemble={"n_paths": 4500, "seed": 7},
                       grid={"n_steps": 128, "pricing_n_steps": 128})
    outs = []
    for threads in ("1", "2", "4", "8"):
        out_dir = tmp_path / f"run{threads}"
        for command in ("density", "price"):
            assert cli.main([command, "--config", cfg, "--threads", threads,
                             "--out", str(out_dir)]) == 0
        outs.append(b"".join((out_dir / name).read_bytes()
                             for name in ("density.csv", "weights.csv", "prices.csv")))
    assert outs[0] == outs[1] == outs[2] == outs[3]


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("model", ["ou", "cir"])
def test_outputs_bit_identical_across_worker_splits(tmp_path, model, antithetic):
    # 2 * 2048 + 300 paths: the last chunk holds one whole 256-path noise
    # block and part of another, and 1, 2 and 3 workers split the three
    # chunks differently
    overrides = cir_overrides() if model == "cir" else {}
    cfg = write_config(tmp_path, **overrides,
                       ensemble={"n_paths": 2 * 2048 + 300, "seed": 13,
                                 "antithetic": antithetic},
                       grid={"n_steps": 64, "pricing_n_steps": 64})
    outs = []
    for threads in ("1", "2", "3"):
        out_dir = tmp_path / f"run{threads}"
        for command in ("density", "price"):
            assert cli.main([command, "--config", cfg, "--threads", threads,
                             "--out", str(out_dir)]) == 0
        outs.append(b"".join((out_dir / name).read_bytes()
                             for name in ("density.csv", "weights.csv", "prices.csv")))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("model", ["ou", "cir"])
def test_antithetic_standard_errors_match_the_seed_to_seed_spread(tmp_path, model):
    """Under "antithetic": true the two paths of a pair are not independent,
    and the printed SEs are taken over the pairs. Over 32 seeds (2048 paths,
    n = 64), the spread of each row's value matches the RMS of its printed
    SE within 3 sampling SEs of a 32-sample spread (1 / sqrt(62) each):
    the mixing and density-quadrature rows of prices.csv, and the
    Malliavin density of density.csv pooled over its grid. Per path, the
    ratios read 0.25 / 0.02 (mixing, OU / CIR), 1.53 / 1.49 (quadrature)
    and 0.63 / 0.49 (density)."""
    overrides = cir_overrides() if model == "cir" else {}
    lo, hi = (0.6, 1.5) if model == "cir" else (0.01, 0.06)
    cfg = write_config(tmp_path, **overrides,
                       ensemble={"n_paths": 2048, "seed": 0, "antithetic": True},
                       density={"x_grid": {"min": lo, "max": hi, "points": 21}})
    out = tmp_path / "out"
    rows = []
    for seed in range(1, 33):
        for command in ("density", "price"):
            assert cli.main([command, "--config", cfg, "--threads", "1",
                             "--seed", str(seed)]) == 0
        dens = np.genfromtxt(out / "density.csv", delimiter=",", names=True)
        prices = {line.split(",")[0]: [float(v) for v in line.split(",")[1:3]]
                  for line in (out / "prices.csv").read_text().splitlines()[1:]}
        rows.append((dens["p_malliavin"], dens["se_malliavin"],
                     *prices["mixing_mc"], *prices["density_quadrature"]))
    value, se = (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    ratios = {"density": math.sqrt(value.var(axis=0, ddof=1).sum()
                                   / (se**2).mean(axis=0).sum())}
    for name, at in (("mixing", 2), ("quadrature", 4)):
        value, se = (np.array([r[at] for r in rows]), np.array([r[at + 1] for r in rows]))
        ratios[name] = value.std(ddof=1) / math.sqrt((se**2).mean())
    band = 3.0 / math.sqrt(2 * 31)
    assert all(abs(r - 1.0) < band for r in ratios.values()), ratios


def test_price_zero_strike_recovers_spot(tmp_path):
    cfg = write_config(tmp_path, contract={"strike": 0.0},
                       ensemble={"n_paths": 2000, "seed": 5})
    assert cli.main(["price", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "prices.csv").read_text().splitlines()
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in lines[1:]}
    for method in ("density_quadrature", "mixing_mc", "plain_mc"):
        value, se = rows[method][0], rows[method][1]
        assert abs(value - 100.0) < max(4 * se, 0.5)


def test_price_runs_one_ensemble(tmp_path, monkeypatch):
    """All three prices read the weighted ensemble: price runs no other."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return ensemble.run_ensemble(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", counted)
    assert cli.main(["price", "--config", write_config(tmp_path)]) == 0
    assert len(calls) == 1
    assert calls[0]["namespace"] == NAMESPACE_DENSITY and calls[0]["collect_asset"]


@pytest.mark.parametrize("value", ["abc", 1])
def test_pricing_n_steps_is_accepted_and_ignored(tmp_path, capsys, value):
    """grid.pricing_n_steps, which older configs carry, neither fails
    validation nor changes a byte of prices.csv, whatever its value."""
    plain = write_config(tmp_path, name="plain.json")
    keyed = write_config(tmp_path, name="keyed.json",
                         grid={"n_steps": 64, "pricing_n_steps": value})
    assert cli.main(["validate", "--config", keyed]) == 0
    assert "VALID" in capsys.readouterr().out
    for cfg, out in ((plain, "plain"), (keyed, "keyed")):
        assert cli.main(["price", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "keyed" / "prices.csv").read_bytes()
            == (tmp_path / "plain" / "prices.csv").read_bytes())


@pytest.mark.parametrize("overrides", [{}, cir_overrides()], ids=["ou", "cir"])
def test_price_rows_read_the_density_ensemble(tmp_path, overrides):
    """The quadrature row is price_from_density on the density ensemble
    itself, and the mixing row price_mixing on its valid F, bit for bit."""
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["price", "--config", cfg, "--threads", "2"]) == 0
    rows = {line.split(",")[0]: line.split(",")[1:] for line in
            (tmp_path / "out" / "prices.csv").read_text().splitlines()[1:]}
    spec = cli.parse_config(cli.load_config(cfg), "price")
    p = spec.model.params
    res = ensemble.run_ensemble(spec.model, make_grid(p.T, spec.density_steps), spec.n_paths,
                                spec.seed, namespace=NAMESPACE_DENSITY)
    f, w = res.valid_samples()
    for row, est in (("density_quadrature", pricing.price_from_density(f, w, 100.0, p.s0,
                                                                       p.r, p.T)),
                     ("mixing_mc", pricing.price_mixing(np.sqrt(f), 100.0, p.s0, p.r, p.T))):
        assert rows[row][:2] == ["%.17g" % est.value, "%.17g" % est.std_error], row


def test_price_builds_no_density(tmp_path, monkeypatch):
    """price integrates the conditional price against the weighted samples
    themselves: it builds neither the x-grid nor the grid density, and its
    prices.csv is the same as when those are reachable."""
    cfg = write_config(tmp_path)
    assert cli.main(["price", "--config", cfg, "--out", str(tmp_path / "free")]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("price must not build a density grid")

    monkeypatch.setattr(cli, "auto_grid", unreachable)
    monkeypatch.setattr(cli, "malliavin_density", unreachable)
    assert cli.main(["price", "--config", cfg, "--out", str(tmp_path / "guarded")]) == 0
    assert ((tmp_path / "guarded" / "prices.csv").read_bytes()
            == (tmp_path / "free" / "prices.csv").read_bytes())


def test_cir_price_command(tmp_path):
    cfg = write_config(tmp_path, **cir_overrides(),
                       ensemble={"n_paths": 1500, "seed": 4})
    assert cli.main(["price", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "prices.csv").read_text().splitlines()
    assert len(lines) == 5


def test_selfcheck_exit_codes(monkeypatch, capsys):
    fake_rows = [selfcheck.CheckResult("a", True, "ok")]
    monkeypatch.setattr(cli, "run_battery", lambda **kw: fake_rows)
    assert cli.main(["selfcheck"]) == 0
    fake_rows.append(selfcheck.CheckResult("b", False, "broken"))
    assert cli.main(["selfcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_corrupted_phi_fails_bs_checks(monkeypatch):
    """Fault injection: a flat normal CDF must turn both Black-Scholes rows
    (monotone/bounds and the constant-volatility oracle) to FAIL."""
    ctx = selfcheck.CheckContext(selfcheck.QUICK)
    check = selfcheck.deterministic_vol_exactness
    assert all(r.passed for r in selfcheck.run_criterion(check, ctx))
    monkeypatch.setattr(pricing, "_phi", lambda x: np.full_like(np.asarray(x, dtype=float), 0.5))
    assert not any(r.passed for r in selfcheck.run_criterion(check, ctx))


def test_scaled_ou_weight_fails_the_raw_weight_checks(fault_weight):
    """Fault injection: an OU weight 10% too large must fail the density
    checks that read the raw weights, at QUICK and the pinned seed, while
    the untouched CIR rows pass. (The quadrature price is nearly blind to
    it: its F w - 1 control recalibrates a mis-scaled weight.)"""
    fault_weight(lambda wb: 1.10 * wb.delta, "ou")
    ctx = selfcheck.CheckContext(selfcheck.QUICK)
    for check in (selfcheck.density_vs_kde, selfcheck.density_cdf_consistency):
        ou_row, cir_row = selfcheck.run_criterion(check, ctx)
        assert not ou_row.passed, ou_row
        assert cir_row.passed, cir_row


@pytest.mark.parametrize("check", [selfcheck.duality, selfcheck.density_cdf_consistency,
                                   selfcheck.ibp_price_identity], ids=lambda c: c.__name__)
def test_weight_five_percent_too_large_fails_the_price_identity(fault_weight, check):
    """Fault injection: OU and CIR weights 5% too large must fail every row
    of the duality, survival and price-identity criteria at QUICK and the
    pinned seed. Each reads the residual of its terms off a fit on delta,
    which stays mean-zero under any rescaling of delta: fitted z 5.39-5.94
    on the duality rows here. Read raw, those rows see only z 0.23-1.41:
    most of the variance of F delta - 1 lies along delta, and the fit
    removes it."""
    fault_weight(lambda wb: 1.05 * wb.delta)
    rows = selfcheck.run_criterion(check, selfcheck.CheckContext(selfcheck.QUICK))
    assert [row.name for row in rows] == list(check.rows)
    assert not any(row.passed for row in rows), rows


def test_additive_weight_error_fails_the_raw_identity_rows(fault_weight):
    """Fault injection: delta + 0.05 std(delta) on both models must fail all
    four duality rows and both zero-mean rows at QUICK and the pinned seed
    (raw z 5.81-7.55 and 5.30/5.56). The fit on delta absorbs most of an
    additive error (CIR duality fitted z 2.1), so it is the raw half of the
    rule that catches it."""
    fault_weight(lambda wb: wb.delta + 0.05 * np.std(wb.delta))
    ctx = selfcheck.CheckContext(selfcheck.QUICK)
    rows = [row for check in (selfcheck.zero_mean_weights, selfcheck.duality)
            for row in selfcheck.run_criterion(check, ctx)]
    assert len(rows) == 6 and not any(row.passed for row in rows), rows


def _identity_z(d, phi, dphi):
    passed, detail = selfcheck._identity(SimpleNamespace(scale=selfcheck.QUICK), d, phi, dphi)
    raw, fitted = map(float, re.findall(r"z=([0-9.]+)", detail))
    return passed, raw, fitted


def test_identity_rule_on_a_stein_toy():
    """F ~ N(m, s^2) i.i.d. has the exact integration-by-parts weight
    delta = (F - m) / s^2 (Stein's lemma), so the rule passes phi = F, F^2
    and survival probes. With m = 2, s = 0.5 and N = 20000, phi = F has
    expected fitted z 0.1 sqrt(N) / (1.1 sqrt 2) = 9.1 under 1.10 delta,
    and expected raw z 0.2 sqrt(N) / sqrt(4.05^2 + 2) = 6.6 under
    delta + 0.05 std(delta) = delta + 0.1, whose shift the fit absorbs."""
    m, s = 2.0, 0.5
    f = np.random.default_rng(7).normal(m, s, 20000)
    d = (f - m) / s**2
    fc, x, top = f[:, None], np.array([m - s, m, m + s]), m + 2 * s
    for phi, dphi in ((f, 1.0), (f * f, 2 * f),
                      (np.maximum(np.minimum(fc, top) - x, 0.0), (fc > x) & (fc <= top))):
        passed, raw, fitted = _identity_z(d, phi, dphi)
        assert passed, (raw, fitted)
    passed, raw, fitted = _identity_z(1.10 * d, f, 1.0)
    assert not passed and fitted >= selfcheck.QUICK.z, (raw, fitted)
    passed, raw, fitted = _identity_z(d + 0.05 * d.std(), f, 1.0)
    assert not passed and raw >= selfcheck.QUICK.z > fitted, (raw, fitted)


def test_density_tiny_ensemble_still_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, ensemble={"n_paths": 10, "seed": 2})
    assert cli.main(["density", "--config", cfg]) == 0
    assert "LOW_SAMPLE" in capsys.readouterr().out
    lines = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert len(lines) == 42
    # KDE needs >= 100 samples, so its columns are NaN at this size
    first = lines[1].split(",")
    assert first[3] == "nan" and first[4] == "nan"
    assert first[1] != "nan"


def test_price_near_deterministic_vol_matches_oracle(tmp_path):
    """With k ~ 0 the volatility path is (numerically) deterministic, so the
    mixing and plain rows must bracket the closed-form constant-vol price,
    and the density-quadrature row must match it. The weight variance
    diverges as k -> 0, but with F nearly constant each term w G(F) is
    nearly a combination of the controls w and (F - m) w - 1 plus the
    conditional price, so the controlled mean is that price.
    (k = 0 itself is rejected by validation, as it should be.)"""
    import math
    cfg = write_config(tmp_path,
                       params={"alpha": 1.0, "k": 1e-8, "y0": 0.0, "s0": 100.0,
                               "r": 0.05, "mu": 0.05, "T": 1.0},
                       ensemble={"n_paths": 4000, "seed": 6})
    assert cli.main(["price", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "prices.csv").read_text().splitlines()
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in lines[1:]}
    # sigma(Y) == sigma(0) = 0.2 up to 1e-8 noise: Black-Scholes oracle
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    d1 = (0.05 + 0.02) / 0.2
    oracle = 100.0 * phi(d1) - 100.0 * math.exp(-0.05) * phi(d1 - 0.2)
    mix_val, mix_se = rows["mixing_mc"][0], rows["mixing_mc"][1]
    assert abs(mix_val - oracle) < max(3 * mix_se, 1e-6)
    plain = rows["plain_mc"]
    assert abs(plain[0] - oracle) < 3 * plain[1]
    assert abs(rows["density_quadrature"][0] - oracle) < 1e-9 * oracle


def test_selfcheck_real_battery_passes(capsys):
    assert cli.main(["selfcheck", "--threads", "2"]) == 0
    out = capsys.readouterr().out
    names = [name for check in selfcheck.CRITERIA for name in check.rows]
    assert f"{len(names)}/{len(names)} checks passed" in out
    assert [line.split()[1] for line in out.splitlines()
            if line.startswith("PASS")] == names


def test_battery_draws_each_grid_in_a_namespace_of_its_own(monkeypatch):
    """Time-major noise gives two ensembles of one namespace on grids of
    different step counts the same leading normals on every path, so their
    rows would move together. No namespace of the battery's statistical
    ensembles holds two step counts (``reproducibility`` compares bytes
    only, and its reruns are left out)."""
    real, steps = selfcheck.run_ensemble, {}

    def record(model, grid, n_paths, seed, namespace=0, **options):
        steps.setdefault(namespace, set()).add(grid.n_steps)
        return real(model, grid, n_paths, seed, namespace=namespace, **options)

    monkeypatch.setattr(selfcheck, "run_ensemble", record)
    scale = dataclasses.replace(selfcheck.QUICK, n_moments=512, n_density=512)
    ctx = selfcheck.CheckContext(scale)
    for check in selfcheck.CRITERIA:
        if check is not selfcheck.reproducibility:
            check(ctx)
    assert all(len(s) == 1 for s in steps.values()), steps


def test_float_serialization_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["density", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "weights.csv").read_text().splitlines()
    val = float(lines[1].split(",")[1])
    assert format(val, ".17g") == lines[1].split(",")[1]
