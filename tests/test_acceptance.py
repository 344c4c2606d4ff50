"""Acceptance battery at desk scale.

Reference configurations:
    OU:  alpha=1, k=0.5, y0=0, sigma family (c=0.1, m=0.1), s0=K=100, r=0.05, T=1
    CIR: b=1, k=0.25, z0=1, s0=K=100, r=0.05, T=1

Scales: N=50000 paths at n=512 for density work, n=256 for pricing,
N=100000 for moment and martingale checks. Statistical criteria use the
stated 3-standard-error tolerances at the pinned seed; exact criteria are
exact. Each test prints one PASS line (visible with pytest -s / -rA).
"""

import json
import math

import numpy as np
import pytest

import avgvar.cli as cli
from avgvar import (make_grid, price_from_density, price_mixing,
                    price_plain_mc, run_ensemble, simulate_cir_paths,
                    simulate_ou_paths)
from avgvar.density import auto_grid, kde_density, malliavin_density
from avgvar.reference import cir_weight_triple_sum, g_double_sum, c_double_sum, ou_weight_double_sum
from avgvar.rng import (NAMESPACE_MIXING, NAMESPACE_MOMENTS, NAMESPACE_PLAIN,
                        PURPOSE_VOL, NoiseStream)
from avgvar.weights_cir import cir_kernel, log_phi_nodes, skorokhod_weight_cir
from avgvar.weights_ou import c_of_h, denominator_g, skorokhod_weight_ou

SEED = 20240601
N_DESK = 50000
N_MOMENTS = 100000
STEPS_DENSITY = 512
STEPS_PRICING = 256
THREADS = 2


def _se(x):
    return x.std(ddof=1) / math.sqrt(x.size)


def report(num, detail):
    print(f"ACCEPTANCE {num:>2} PASS  {detail}")


@pytest.fixture(scope="module")
def ou_ensemble(ou_model):
    return run_ensemble(ou_model, make_grid(1.0, STEPS_DENSITY), N_DESK, SEED,
                        threads=THREADS)


@pytest.fixture(scope="module")
def cir_ensemble(cir_model):
    return run_ensemble(cir_model, make_grid(1.0, STEPS_DENSITY), N_DESK, SEED,
                        threads=THREADS)


@pytest.fixture(scope="module")
def ou_density(ou_model, ou_ensemble):
    f, d = ou_ensemble.valid_samples()
    grid_x = auto_grid(f, points=41, lower_bound=ou_model.vol.lower_bound_c**2)
    return malliavin_density(f, d, grid_x)


@pytest.fixture(scope="module")
def cir_density(cir_ensemble):
    f, d = cir_ensemble.valid_samples()
    return malliavin_density(f, d, auto_grid(f, points=41))


def test_criterion_01_ou_moments(ou_model):
    res = run_ensemble(ou_model, make_grid(1.0, STEPS_PRICING), N_MOMENTS, SEED,
                       namespace=NAMESPACE_MOMENTS, threads=THREADS,
                       compute_weights=False, collect_terminal=True)
    y = res.terminal_state
    p = ou_model.params
    mean_target = p.y0 * math.exp(-p.alpha * p.T)
    var_target = p.k**2 / (2 * p.alpha) * (1 - math.exp(-2 * p.alpha * p.T))
    z_mean = abs(y.mean() - mean_target) / _se(y)
    sq = (y - y.mean()) ** 2
    z_var = abs(y.var() - var_target) / _se(sq)
    assert z_mean < 3 and z_var < 3, (z_mean, z_var)
    report(1, f"OU moments: z_mean={z_mean:.2f} z_var={z_var:.2f}")


def test_criterion_02_cir_moments(cir_model):
    res = run_ensemble(cir_model, make_grid(1.0, STEPS_DENSITY), N_MOMENTS, SEED,
                       namespace=NAMESPACE_MOMENTS, threads=THREADS,
                       compute_weights=False, collect_terminal=True)
    z = res.terminal_state
    c = cir_model.params
    mean_target = c.z0 * math.exp(-c.T) + c.b * (1 - math.exp(-c.T))
    var_target = (c.z0 * c.k**2 * (math.exp(-c.T) - math.exp(-2 * c.T))
                  + 0.5 * c.b * c.k**2 * (1 - math.exp(-c.T)) ** 2)
    z_mean = abs(z.mean() - mean_target) / _se(z)
    sq = (z - z.mean()) ** 2
    z_var = abs(z.var() - var_target) / _se(sq)
    assert z_mean < 3 and z_var < 3, (z_mean, z_var)
    report(2, f"CIR moments: z_mean={z_mean:.2f} z_var={z_var:.2f}")


def test_criterion_03_zero_mean_weights(ou_ensemble, cir_ensemble):
    zs = []
    for res in (ou_ensemble, cir_ensemble):
        _, d = res.valid_samples()
        zs.append(abs(d.mean()) / _se(d))
    assert all(z < 3 for z in zs), zs
    report(3, f"zero-mean weights: z_ou={zs[0]:.2f} z_cir={zs[1]:.2f}")


def test_criterion_04_duality(ou_ensemble, cir_ensemble):
    zs = []
    for res in (ou_ensemble, cir_ensemble):
        f, d = res.valid_samples()
        first = f * d - 1.0
        square = f * f * d - 2.0 * f
        zs.append(abs(first.mean()) / _se(first))
        zs.append(abs(square.mean()) / _se(square))
    assert all(z < 3 for z in zs), zs
    report(4, "duality: z = " + " ".join(f"{z:.2f}" for z in zs))


def test_criterion_05_density_normalization(ou_density, cir_density):
    masses = (ou_density.normalization, cir_density.normalization)
    assert all(0.95 <= m <= 1.05 for m in masses), masses
    report(5, f"normalization: ou={masses[0]:.4f} cir={masses[1]:.4f}")


def test_criterion_06_density_vs_kde(ou_ensemble, cir_ensemble, ou_density,
                                     cir_density):
    worst = []
    for res, dens in ((ou_ensemble, ou_density), (cir_ensemble, cir_density)):
        f, _ = res.valid_samples()
        kde = kde_density(f, dens.x_grid)
        inner = slice(10, 31)  # 21 interior grid points covering the bulk
        gap = np.abs(dens.p_hat - kde.p_hat)[inner]
        tol = 3.0 * (dens.se + kde.se)[inner]
        assert np.all(gap <= tol), float(np.max(gap - tol))
        worst.append(float(np.max(gap / tol)))
    report(6, f"KDE agreement: worst gap/tol ou={worst[0]:.2f} cir={worst[1]:.2f}")


def test_criterion_07_density_cdf_consistency(ou_ensemble, cir_ensemble,
                                              ou_density, cir_density):
    """Survival integral of p_hat vs empirical survival at 10 grid points.

    Tolerance is 3 x the combined SE, i.e. the sum of the two estimators'
    standard errors (same idiom as the KDE criterion). The check grid is
    16x finer than the reporting grid so that the O(h^2) trapezoid error of
    integrating indicator steps stays far below the statistical tolerance;
    both sides truncate at the grid top.
    """
    worst = []
    for res, dens in ((ou_ensemble, ou_density), (cir_ensemble, cir_density)):
        f, d = res.valid_samples()
        fine = np.linspace(dens.x_grid[0], dens.x_grid[-1], 641)
        top = fine[-1]
        ratio = 0.0
        for x in np.percentile(f, np.linspace(5, 95, 10)):
            mask = fine >= x
            if mask.sum() < 2:
                continue
            int_terms = np.trapezoid((f[:, None] > fine[None, mask]) * d[:, None],
                                     fine[mask], axis=1)
            emp_terms = ((f > x) & ~(f > top)).astype(float)
            gap = abs(int_terms.mean() - emp_terms.mean())
            tol = 3.0 * (_se(int_terms) + _se(emp_terms))
            ratio = max(ratio, gap / tol)
        assert ratio < 1.0, ratio
        worst.append(ratio)
    report(7, f"density/CDF consistency: worst gap/tol ou={worst[0]:.2f} "
              f"cir={worst[1]:.2f}")


def test_criterion_08_price_triangle(ou_model, cir_model, ou_ensemble,
                                     cir_ensemble, ou_density, cir_density):
    details = []
    for model, res, dens in ((ou_model, ou_ensemble, ou_density),
                             (cir_model, cir_ensemble, cir_density)):
        p = model.params
        strike = 100.0
        f, d = res.valid_samples()
        p_dens = price_from_density(dens, strike, p.s0, p.r, p.T,
                                    samples=f, weights=d)
        mix = run_ensemble(model, make_grid(1.0, STEPS_PRICING), N_DESK, SEED,
                           namespace=NAMESPACE_MIXING, threads=THREADS,
                           compute_weights=False)
        p_mix = price_mixing(np.sqrt(mix.avg_variance), strike, p.s0, p.r, p.T)
        plain = run_ensemble(model, make_grid(1.0, STEPS_PRICING), N_DESK, SEED,
                             namespace=NAMESPACE_PLAIN, threads=THREADS,
                             compute_weights=False, collect_asset=True)
        p_plain = price_plain_mc(plain.terminal_asset, strike, p.r, p.T)

        assert p_dens.overlaps(p_mix) and p_dens.overlaps(p_plain) \
            and p_mix.overlaps(p_plain), (p_dens, p_mix, p_plain)
        rel = abs(p_dens.value - p_mix.value) / p_mix.value
        assert rel < 0.02, rel
        details.append(f"{res.model_tag}: dq={p_dens.value:.4f} "
                       f"mix={p_mix.value:.4f} plain={p_plain.value:.4f} "
                       f"|dq-mix|/mix={rel:.3%}")
    report(8, "price triangle: " + " | ".join(details))


def test_criterion_09_deterministic_vol_exactness():
    sig = np.full(N_DESK, 0.2)
    est = price_mixing(sig, 100.0, 100.0, 0.05, 1.0)
    d1 = (math.log(1.0) + 0.05 + 0.5 * 0.04) / 0.2
    d2 = d1 - 0.2
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    oracle = 100.0 * phi(d1) - 100.0 * math.exp(-0.05) * phi(d2)
    assert abs(est.value - oracle) < 1e-9, (est.value, oracle)
    report(9, f"deterministic vol: |mixing - oracle| = {abs(est.value - oracle):.2e} "
              f"(oracle {oracle:.6f})")


def test_criterion_10_martingale(ou_model):
    res = run_ensemble(ou_model, make_grid(1.0, STEPS_PRICING), N_MOMENTS, SEED,
                       namespace=NAMESPACE_PLAIN, threads=THREADS,
                       compute_weights=False, collect_asset=True)
    p = ou_model.params
    disc = math.exp(-p.r * p.T) * res.terminal_asset
    z = abs(disc.mean() - p.s0) / _se(disc)
    assert z < 3, z
    report(10, f"martingale: mean(e^-rT S_T) = {disc.mean():.4f}, z = {z:.2f}")


def test_criterion_11_positivity_guards(ou_ensemble, cir_ensemble):
    for res in (ou_ensemble, cir_ensemble):
        assert res.n_failures == 0
        assert np.all(res.denominator > 0)
    report(11, f"guards: 0 violations in 2 x {N_DESK} paths")


def test_criterion_12_kernel_oracles(ou_model, cir_model):
    grid = make_grid(1.0, 64)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    worst = 0.0

    ob = simulate_ou_paths(ou_model, grid, stream, np.arange(5))
    nu, nup = ob.nu, ob.nu_prime
    g_fast = denominator_g(nu, grid, 1.0)
    c_fast = c_of_h(nu, nup, grid, 1.0)
    wb = skorokhod_weight_ou(ob, ou_model.params)
    for p in range(5):
        g_ref = g_double_sum(nu[p], grid, 1.0)
        c_ref = c_double_sum(nu[p], nup[p], grid, 1.0)
        ito_ref, trace_ref, _ = ou_weight_double_sum(nu[p], nup[p],
                                                     ob.ito_prefix[p], grid, 1.0, 0.5)
        worst = max(worst,
                    abs(g_fast[p] - g_ref) / abs(g_ref),
                    float(np.max(np.abs(c_fast[p] - c_ref))) / float(np.max(np.abs(c_ref))),
                    abs(wb.term_ito[p] - ito_ref) / abs(ito_ref),
                    abs(wb.term_trace[p] - trace_ref) / abs(trace_ref))

    cb = simulate_cir_paths(cir_model, grid, stream, np.arange(5))
    kern = cir_kernel(cb, cir_model.params)
    wcb = skorokhod_weight_cir(cb, cir_model.params, kern)
    log_phi = log_phi_nodes(cb, kern.q)
    for p in range(5):
        a, b, c2, c3, i_ref = cir_weight_triple_sum(cb.states[p], log_phi[p],
                                                    cb.dW[p], grid, cir_model.params)
        worst = max(worst,
                    abs(kern.I[p] - i_ref) / i_ref,
                    abs(wcb.term_ito[p] - a) / abs(a),
                    abs(wcb.term_trace[p] - b) / abs(b),
                    abs(wcb.term_dphi[p] - c2) / abs(c2),
                    abs(wcb.term_denom[p] - c3) / abs(c3))
    assert worst < 1e-8, worst
    report(12, f"kernel oracles: worst factorized-vs-direct rel err {worst:.2e}")


def test_quadrature_converged_in_grid_size(ou_model, ou_ensemble, ou_density):
    """Doubling the density x-grid (41 -> 81) moves the quadrature price by
    far less than half its standard error (pricing-module invariant)."""
    p = ou_model.params
    f, d = ou_ensemble.valid_samples()
    coarse = price_from_density(ou_density, 100.0, p.s0, p.r, p.T,
                                samples=f, weights=d)
    x81 = np.linspace(ou_density.x_grid[0], ou_density.x_grid[-1], 81)
    dens81 = malliavin_density(f, d, x81)
    fine = price_from_density(dens81, 100.0, p.s0, p.r, p.T, samples=f, weights=d)
    assert abs(fine.value - coarse.value) < 0.5 * coarse.std_error


def test_criterion_13_reproducibility(tmp_path):
    cfg = {
        "model": "ou",
        "params": {"alpha": 1.0, "k": 0.5, "y0": 0.0, "s0": 100.0,
                   "r": 0.05, "mu": 0.05, "T": 1.0},
        "vol_family": {"name": "reference", "c": 0.1, "m": 0.1},
        "grid": {"n_steps": 128, "pricing_n_steps": 128},
        "ensemble": {"n_paths": 4100, "seed": 17},
        "contract": {"strike": 100.0},
        "density": {"x_grid": "auto"},
        "output": {"directory": str(tmp_path / "o"), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"t{threads}"
        assert cli.main(["density", "--config", str(cfg_path),
                         "--threads", threads, "--out", str(out)]) == 0
        assert cli.main(["price", "--config", str(cfg_path),
                         "--threads", threads, "--out", str(out)]) == 0
        blobs.append(b"".join((out / name).read_bytes()
                              for name in ("density.csv", "weights.csv", "prices.csv")))
    assert blobs[0] == blobs[1] == blobs[2]
    report(13, "reproducibility: density/weights/prices byte-identical for "
               "--threads 1/4/8")
