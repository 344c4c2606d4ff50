"""Self-contained correctness battery, runnable from a fresh checkout.

Runs the same families of checks as the full acceptance suite but at
reduced sample sizes (documented per check below), so the whole battery
finishes in well under a minute single-threaded. Statistical checks use a
+/- 3.89 SE guard band (two-sided p ~ 1e-4) instead of the acceptance
suite's 3 SE: at reduced N the Monte Carlo noise dominates discretization
bias, and the wider band keeps the battery seed-robust without weakening
any exact (non-statistical) check.

Sizes: moments N=20000; duality/density ensembles N=12000 at n=256;
pricing N=8000 at n=128; kernel oracles at n=64 (exact, 1e-8);
reproducibility on N=3000 (spans two chunks).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import pricing
from .density import auto_grid, kde_density, malliavin_density
from .ensemble import run_ensemble, summarize
from .models import (CIRParams, Contract, OUParams, reference_vol_family,
                     validate_cir, validate_ou)
from .paths import make_grid
from .reference import c_double_sum, cir_weight_triple_sum, g_double_sum
from .rng import NAMESPACE_MIXING, NAMESPACE_MOMENTS, NAMESPACE_PLAIN, PURPOSE_VOL, NoiseStream
from .weights_cir import cir_kernel, log_phi_nodes, skorokhod_weight_cir
from .weights_ou import c_of_h, denominator_g
from . import paths as _paths

Z_BAND = 3.89  # two-sided p ~ 1e-4

OU_REFERENCE = OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0, r=0.05, mu=0.05, T=1.0)
CIR_REFERENCE = CIRParams(b=1.0, k=0.25, z0=1.0, s0=100.0, r=0.05, mu=0.05, T=1.0)
REFERENCE_VOL = (0.1, 0.1)  # (c, m)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _z(mean, se):
    return abs(mean) / se if se and se > 0 else math.inf


def _zcheck(rows, name, values, target=0.0):
    s = summarize(np.asarray(values) - target)
    z = _z(s.mean, s.se)
    rows.append(CheckResult(name, z < Z_BAND,
                            f"mean {s.mean + target:+.5f} target {target:+.5f} z={z:.2f}"))


def run_battery(seed=20240601, threads=1):
    """Run every check; returns a list of CheckResult."""
    rows = []
    vol = reference_vol_family(*REFERENCE_VOL)
    ou = validate_ou(OU_REFERENCE, vol)
    cir = validate_cir(CIR_REFERENCE, density_mode=True)

    # --- moments against the closed-form driver laws (N=20000) ---
    res = run_ensemble(ou, make_grid(OU_REFERENCE.T, 64), 20000, seed,
                       namespace=NAMESPACE_MOMENTS, threads=threads,
                       compute_weights=False, collect_terminal=True)
    y_t = res.terminal_state
    p = OU_REFERENCE
    mean_target = p.y0 * math.exp(-p.alpha * p.T)
    var_target = p.k**2 / (2 * p.alpha) * (1 - math.exp(-2 * p.alpha * p.T))
    _zcheck(rows, "ou_terminal_mean", y_t, mean_target)
    _zcheck(rows, "ou_terminal_var", (y_t - y_t.mean()) ** 2, var_target)

    res = run_ensemble(cir, make_grid(CIR_REFERENCE.T, 256), 20000, seed,
                       namespace=NAMESPACE_MOMENTS, threads=threads,
                       compute_weights=False, collect_terminal=True)
    z_t = res.terminal_state
    c = CIR_REFERENCE
    mean_target = c.z0 * math.exp(-c.T) + c.b * (1 - math.exp(-c.T))
    var_target = (c.z0 * c.k**2 * (math.exp(-c.T) - math.exp(-2 * c.T))
                  + 0.5 * c.b * c.k**2 * (1 - math.exp(-c.T)) ** 2)
    _zcheck(rows, "cir_terminal_mean", z_t, mean_target)
    _zcheck(rows, "cir_terminal_var", (z_t - z_t.mean()) ** 2, var_target)

    # --- duality battery and density diagnostics (N=12000, n=256) ---
    guards_ok = True
    ou_density = None  # kept for the price-triangle check below
    for tag, model in (("ou", ou), ("cir", cir)):
        ens = run_ensemble(model, make_grid(1.0, 256), 12000, seed, threads=threads)
        guards_ok &= ens.n_failures == 0
        f, d = ens.valid_samples()
        _zcheck(rows, f"{tag}_weight_zero_mean", d)
        _zcheck(rows, f"{tag}_duality_first", f * d, 1.0)
        _zcheck(rows, f"{tag}_duality_square", f * f * d - 2 * f)

        grid_x = auto_grid(f, points=41, lower_bound=model.density_lower_bound)
        dens = malliavin_density(f, d, grid_x)
        rows.append(CheckResult(f"{tag}_density_mass",
                                0.90 <= dens.normalization <= 1.10,
                                f"mass {dens.normalization:.4f} (band 0.90..1.10 at N=12000)"))
        kde = kde_density(f, grid_x)
        inner = slice(2, -2)
        gap = np.abs(dens.p_hat - kde.p_hat)[inner]
        tol = Z_BAND * (dens.se + kde.se)[inner]
        worst = float(np.max(gap - tol))
        rows.append(CheckResult(f"{tag}_density_vs_kde", bool(np.all(gap <= tol)),
                                f"max(gap - {Z_BAND}*(se_m+se_kde)) = {worst:+.4f}"))

        # trapezoid of 1{F_i > u} w_i over [x, top] vs the empirical mass of
        # (x, top] (truncating both sides identically); tolerance is the sum
        # of the two estimators' SEs. The check grid is finer than the
        # reporting grid: trapezoid integration of indicator steps has a
        # deterministic O(h^2) error that must stay far below the noise.
        worst_ratio = 0.0
        fine_x = np.linspace(grid_x[0], grid_x[-1], 641)
        top = fine_x[-1]
        for x in np.percentile(f, [20, 40, 60, 80, 95]):
            mask = fine_x >= x
            if mask.sum() < 2:
                continue
            int_terms = np.trapezoid((f[:, None] > fine_x[None, mask]) * d[:, None],
                                     fine_x[mask], axis=1)
            emp_terms = ((f > x) & ~(f > top)).astype(float)
            gap = abs(int_terms.mean() - emp_terms.mean())
            tol = Z_BAND * (summarize(int_terms).se + summarize(emp_terms).se)
            worst_ratio = max(worst_ratio, gap / tol)
        cdf_ok = worst_ratio < 1.0
        rows.append(CheckResult(f"{tag}_survival_consistency", cdf_ok,
                                f"worst gap/tolerance over probe points = {worst_ratio:.2f}"))
        if tag == "ou":
            ou_density = dens
            ou_samples, ou_weights = f, d

    rows.append(CheckResult("positivity_guards", guards_ok,
                            "0 guard violations" if guards_ok else "guard violations found"))

    # --- factorized kernels vs brute-force direct sums (n=64, exact) ---
    grid64 = make_grid(1.0, 64)
    stream = NoiseStream(seed, PURPOSE_VOL, namespace=NAMESPACE_MOMENTS)
    ob = _paths.simulate_ou_paths(ou, grid64, stream, np.arange(3))
    f_nodes, g_nodes = ob.nu, ob.nu_prime
    worst = 0.0
    g_fact = denominator_g(f_nodes, grid64, ou.params.alpha)
    c_fact = c_of_h(f_nodes, g_nodes, grid64, ou.params.alpha)
    for pth in range(3):
        g_ref = g_double_sum(f_nodes[pth], grid64, ou.params.alpha)
        c_ref = c_double_sum(f_nodes[pth], g_nodes[pth], grid64, ou.params.alpha)
        scale_c = np.max(np.abs(c_ref))
        worst = max(worst,
                    abs(g_fact[pth] - g_ref) / g_ref,
                    float(np.max(np.abs(c_fact[pth] - c_ref))) / scale_c)
    cb = _paths.simulate_cir_paths(cir, grid64, stream, np.arange(3))
    kern = cir_kernel(cb, cir.params)
    wcb = skorokhod_weight_cir(cb, cir.params, kern)
    log_phi = log_phi_nodes(cb, kern.q)
    for pth in range(3):
        a, b, c2, c3, i_ref = cir_weight_triple_sum(cb.states[pth], log_phi[pth],
                                                    cb.dW[pth], grid64, cir.params)
        worst = max(worst,
                    abs(kern.I[pth] - i_ref) / i_ref,
                    abs(wcb.term_ito[pth] - a) / abs(a),
                    abs(wcb.term_trace[pth] - b) / abs(b),
                    abs(wcb.term_dphi[pth] - c2) / abs(c2),
                    abs(wcb.term_denom[pth] - c3) / abs(c3))
    rows.append(CheckResult("kernel_oracles", worst < 1e-8,
                            f"worst factorized-vs-direct rel err {worst:.2e}"))

    # --- conditional Black-Scholes sanity (exact checks) ---
    rows.extend(bs_checks())

    # --- price triangle on the OU config (N=8000, n=128) ---
    contract = Contract(strike=100.0)
    mix_ens = run_ensemble(ou, make_grid(1.0, 128), 8000, seed,
                           namespace=NAMESPACE_MIXING, threads=threads,
                           compute_weights=False)
    plain_ens = run_ensemble(ou, make_grid(1.0, 128), 8000, seed,
                             namespace=NAMESPACE_PLAIN, threads=threads,
                             compute_weights=False, collect_asset=True)
    p_mix = pricing.price_mixing(np.sqrt(mix_ens.avg_variance), contract.strike,
                                 ou.params.s0, ou.params.r, ou.params.T)
    p_plain = pricing.price_plain_mc(plain_ens.terminal_asset, contract.strike,
                                     ou.params.r, ou.params.T)
    p_dens = pricing.price_from_density(ou_density, contract.strike,
                                        ou.params.s0, ou.params.r, ou.params.T,
                                        samples=ou_samples, weights=ou_weights)
    tri = (p_mix.overlaps(p_plain) and p_mix.overlaps(p_dens)
           and p_plain.overlaps(p_dens))
    rows.append(CheckResult("price_triangle", tri,
                            f"dq {p_dens.value:.4f} mix {p_mix.value:.4f} "
                            f"plain {p_plain.value:.4f}"))

    disc = math.exp(-ou.params.r * ou.params.T) * plain_ens.terminal_asset
    _zcheck(rows, "martingale", disc, ou.params.s0)

    # --- reproducibility: threads and reruns must not move a byte ---
    a = run_ensemble(ou, make_grid(1.0, 64), 3000, seed, threads=1)
    b = run_ensemble(ou, make_grid(1.0, 64), 3000, seed, threads=2)
    c_rerun = run_ensemble(ou, make_grid(1.0, 64), 3000, seed, threads=1)
    same = (a.weight.tobytes() == b.weight.tobytes() == c_rerun.weight.tobytes()
            and a.avg_variance.tobytes() == b.avg_variance.tobytes())
    rows.append(CheckResult("reproducibility", same,
                            "bit-identical across threads and reruns" if same
                            else "outputs differ"))
    return rows


def _bs_oracle(s0, strike, r, T, sigma):
    """Independent Black-Scholes evaluation via math.erfc."""
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    return s0 * phi(d1) - strike * math.exp(-r * T) * phi(d2)


def bs_checks():
    """Exact conditional-pricer checks: monotone in sigma, within no-arbitrage
    bounds, and equal to an independent oracle for constant volatility.

    These go through pricing._phi, so corrupting the normal CDF (fault
    injection) must flip them to FAIL.
    """
    rows = []
    sig_grid = np.linspace(0.05, 1.0, 40)
    _, prices = pricing.bs_conditional(sig_grid, 100.0, 100.0, 0.05, 1.0)
    mono = bool(np.all(np.diff(prices) > 0))
    lo_bound = max(100.0 - 100.0 * math.exp(-0.05), 0.0)
    bounds = bool(np.all(prices >= lo_bound - 1e-12) and np.all(prices <= 100.0 + 1e-12))
    rows.append(CheckResult("bs_monotone_bounded", mono and bounds,
                            f"monotone={mono} bounds={bounds}"))
    oracle = _bs_oracle(100.0, 100.0, 0.05, 1.0, 0.2)
    mix = pricing.price_mixing(np.full(200, 0.2), 100.0, 100.0, 0.05, 1.0)
    rows.append(CheckResult("bs_deterministic_vol", abs(mix.value - oracle) < 1e-9,
                            f"|mixing - oracle| = {abs(mix.value - oracle):.2e}"))
    return rows


def format_table(rows):
    lines = []
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(f"{status}  {row.name:<26s} {row.detail}")
    n_fail = sum(not r.passed for r in rows)
    lines.append(f"{'OK' if n_fail == 0 else 'FAILED'}  "
                 f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return "\n".join(lines)
