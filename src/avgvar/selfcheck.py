"""The correctness battery: one registry of criteria, run at two scales.

Each criterion is one function of a CheckContext, registered with the
names of the rows it returns. ``avgvar selfcheck`` runs the whole registry
at QUICK scale; ``tests/test_acceptance.py`` runs it at DESK scale, one
test per criterion. A scale fixes the sample sizes and the statistical
tolerances. The exact checks are the same at both: the weights against
their dense oracle within 1e-8, the constant-volatility price within
1e-9, bit-identical reruns.

Statistical checks pass within ``scale.z`` standard errors: 3 at DESK and
3.89 (two-sided p ~ 1e-4) at QUICK. At QUICK's smaller N the Monte Carlo
noise dominates the discretization bias, and the wider band keeps the
battery seed-robust. An integration-by-parts row fails when the per-path
terms phi(F) delta - phi'(F), raw or less their fit on delta, reach the band.

Every ensemble of the battery computes weights. Each model's weighted
(density) ensemble, in rng.NAMESPACE_DENSITY, also draws a terminal asset
price per path, and the price triangle reads all three prices off it
through ``pricing.ensemble_prices``, as ``avgvar price`` does. Noise
namespaces (``avgvar.rng``) separate the battery's other ensembles, which
share the seed. The noise rows are time-major, so two ensembles of one
namespace on grids of different step counts share each path's leading
normals. So each model's moment ensemble, which the martingale row also
reads, has a namespace of its own (NAMESPACE_MOMENTS + the model's index;
their grids differ), and each coarse grid one from NAMESPACE_COARSE up,
apart from the density ensembles and each other.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import pricing
from .density import auto_grid, kde_bandwidth, kde_density, malliavin_density
from .ensemble import drivers, run_ensemble
from .models import (CIRParams, OUParams, ValidatedOUModel, reference_vol_family,
                     validate_cir, validate_ou)
from .paths import make_grid
from .reference import dense_weight, ou_path
from .rng import PURPOSE_VOL, NoiseStream
from .workspace import Workspace

SEED = 20240601
NAMESPACE_MOMENTS = 3  # and 4
NAMESPACE_COARSE = 5
OU_REFERENCE = OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0, r=0.05, mu=0.05, T=1.0)
CIR_REFERENCE = CIRParams(b=1.0, k=0.25, z0=1.0, s0=100.0, r=0.05, mu=0.05, T=1.0)
# fast mean reversion over a long horizon: on an 8-step grid one Euler step
# moves Z a quarter of the way to b
CIR_FAST_DECAY = CIRParams(b=20.0, k=1.5, z0=0.5, s0=100.0, r=0.05, mu=0.05, T=2.0)
REFERENCE_VOL = (0.1, 0.1)  # (c, m)
MODELS = ("ou", "cir")
STRIKE = 100.0
ORACLE_STEPS, ORACLE_PATHS = 64, 5
REPRO_STEPS, REPRO_PATHS = 64, 3000  # two chunks
# the coarse grids of the duality criterion: OU with k = 0.5 sqrt(alpha),
# T = 1 at n = 64, and both CIR models at n = 8 and 16
COARSE_OU_ALPHAS, COARSE_OU_STEPS = (1.0, 30.0, 100.0), 64
COARSE_CIR_STEPS = (8, 16)


@dataclass(frozen=True)
class Scale:
    """Sample sizes and statistical tolerances of one run of the battery."""

    z: float                     # statistical band, in standard errors
    n_moments: int               # terminal-moment and martingale ensembles
    moment_steps: dict           # their grid steps, per model
    n_density: int               # weighted (density and pricing) ensembles
    density_steps: int
    mass_band: tuple             # accepted density mass
    kde_interior: slice          # grid points where Malliavin and KDE must agree
    survival_percentiles: tuple  # survival probes, as percentiles of F


QUICK = Scale(z=3.89, n_moments=20000, moment_steps={"ou": 64, "cir": 256},
              n_density=20000, density_steps=256, mass_band=(0.90, 1.10),
              kde_interior=slice(2, -2), survival_percentiles=(20, 40, 60, 80, 95))
DESK = Scale(z=3.0, n_moments=100000, moment_steps={"ou": 256, "cir": 512},
             n_density=50000, density_steps=512, mass_band=(0.95, 1.05),
             kde_interior=slice(10, 31),  # 21 interior points covering the bulk
             survival_percentiles=(5, 15, 25, 35, 45, 55, 65, 75, 85, 95))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class CheckContext:
    """The scale, seed and threads of one battery run. Ensembles are
    simulated on first use and shared by every criterion that reads them."""

    def __init__(self, scale, seed=SEED, threads=1):
        self.scale, self.seed, self.threads = scale, seed, threads
        vol = reference_vol_family(*REFERENCE_VOL)
        self.models = {"ou": validate_ou(OU_REFERENCE, vol),
                       "cir": validate_cir(CIR_REFERENCE),
                       "cir_fast": validate_cir(CIR_FAST_DECAY)}
        for alpha in COARSE_OU_ALPHAS:
            self.models[f"ou_alpha{alpha:g}"] = validate_ou(dataclasses.replace(
                OU_REFERENCE, alpha=alpha, k=0.5 * math.sqrt(alpha)), vol)
        self._cache = {}

    def _once(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _ensemble(self, tag, n_paths, steps, **options):
        model = self.models[tag]
        return self._once((tag, n_paths, steps, *sorted(options.items())), lambda: run_ensemble(
            model, make_grid(model.params.T, steps), n_paths, self.seed,
            threads=self.threads, **options))

    def moments(self, tag):
        """The terminal-moment ensemble, with a terminal asset draw per path
        for the martingale row, in a namespace of its model's own: the two
        models' moment grids differ in step count."""
        s = self.scale
        return self._ensemble(tag, s.n_moments, s.moment_steps[tag],
                              namespace=NAMESPACE_MOMENTS + MODELS.index(tag),
                              collect_asset=True)

    def weighted(self, tag):
        """(ensemble, F, delta, Malliavin density on the 41-point auto grid),
        the ensemble with a terminal asset draw per path for the prices."""
        def make():
            ens = self._ensemble(tag, self.scale.n_density, self.scale.density_steps,
                                 collect_asset=True)
            f, d = ens.valid_samples()
            x = auto_grid(f, lower_bound=self.models[tag].density_lower_bound)
            return ens, f, d, malliavin_density(f, d, x)
        return self._once(("weighted", tag), make)


def criterion(*rows):
    """Name the rows of a check: it takes a CheckContext and returns one
    (passed, detail) pair per row, in order."""
    def name_rows(check):
        check.rows = rows
        return check
    return name_rows


def _zcheck(ctx, values, target=0.0):
    s = pricing.mc_estimate(np.asarray(values) - target)
    z = abs(s.value) / s.std_error if s.std_error else math.inf
    return z < ctx.scale.z, f"mean {s.value + target:+.5f} target {target:+.5f} z={z:.2f}"


def _identity(ctx, d, phi, dphi):
    """E[phi(F) delta] = E[phi'(F)], exact for F_n, on the (N,) or (N, m)
    terms phi(F) delta - phi'(F): their raw z sees an additive error in
    delta, and the z of their residual off a fit on delta, mean-zero under
    any rescaling of delta, a scale error. Worst column of each."""
    terms = np.reshape(np.einsum("p,p...->p...", d, phi) - dphi, (len(d), -1))
    dc = d - d.mean()
    beta = np.einsum("p,pm->m", dc, terms) / np.einsum("p,p->", dc, dc)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw, fit = (float(np.max(np.abs(s.value) / s.std_error)) for s in
                    map(pricing.mc_estimate, (terms, terms - np.einsum("p,m->pm", d, beta))))
    return max(raw, fit) < ctx.scale.z, f"raw z={raw:.2f} fitted z={fit:.2f}"


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


@criterion("ou_terminal_mean", "ou_terminal_var")
def ou_moments(ctx):
    """Terminal mean and variance of Y against the OU transition law."""
    y, p = ctx.moments("ou").terminal_state, OU_REFERENCE
    var = p.k**2 / (2 * p.alpha) * (1 - math.exp(-2 * p.alpha * p.T))
    return [_zcheck(ctx, y, p.y0 * math.exp(-p.alpha * p.T)),
            _zcheck(ctx, (y - y.mean()) ** 2, var)]


@criterion("cir_terminal_mean", "cir_terminal_var")
def cir_moments(ctx):
    """Terminal mean and variance of Z against the CIR closed forms."""
    z, c = ctx.moments("cir").terminal_state, CIR_REFERENCE
    var = (c.z0 * c.k**2 * (math.exp(-c.T) - math.exp(-2 * c.T))
           + 0.5 * c.b * c.k**2 * (1 - math.exp(-c.T)) ** 2)
    return [_zcheck(ctx, z, c.z0 * math.exp(-c.T) + c.b * (1 - math.exp(-c.T))),
            _zcheck(ctx, (z - z.mean()) ** 2, var)]


@criterion("ou_weight_zero_mean", "cir_weight_zero_mean")
def zero_mean_weights(ctx):
    """E[delta] = 0."""
    return [_zcheck(ctx, ctx.weighted(tag)[2]) for tag in MODELS]


@criterion("ou_duality_first", "ou_duality_square", "cir_duality_first", "cir_duality_square")
def duality(ctx):
    """E[F delta] = 1 and E[F^2 delta] = 2 E[F]."""
    rows = []
    for tag in MODELS:
        _, f, d, _ = ctx.weighted(tag)
        rows += [_identity(ctx, d, f, 1.0), _identity(ctx, d, f * f, 2 * f)]
    return rows


@criterion("ou_density_mass", "cir_density_mass")
def density_normalization(ctx):
    """The Malliavin density integrates to 1 within the scale's mass band."""
    lo, hi = ctx.scale.mass_band
    masses = [ctx.weighted(tag)[3].normalization for tag in MODELS]
    return [(lo <= m <= hi, f"mass {m:.4f} (band {lo:.2f}..{hi:.2f} at "
             f"N={ctx.scale.n_density})") for m in masses]


@criterion("ou_density_vs_kde", "cir_density_vs_kde")
def density_vs_kde(ctx):
    """The KDE and the Malliavin density smoothed by the KDE's kernel agree
    within z (se_m + se_kde) on the interior of the grid. Smoothed, the
    Malliavin estimate is mean(delta Phi((F - x) / h)), and both estimate
    the density of F convolved with the kernel, so the KDE's O(h^2)
    smoothing bias, largest where the density bends at the foot of its
    support, is not read as a disagreement. As an identity row (phi =
    Phi((F - x) / h)) it would false-alarm on the weight's heavy tail: OU
    with the right weight read fitted z 4.04-5.10 at QUICK seeds 2, 5, 6, 7."""
    rows = []
    for tag in MODELS:
        _, f, d, dens = ctx.weighted(tag)
        kde = kde_density(f, dens.x_grid)
        smooth = pricing.mc_estimate(
            pricing._phi((f[:, None] - dens.x_grid) / kde_bandwidth(f)) * d[:, None])
        inner = ctx.scale.kde_interior
        gap = np.abs(smooth.value - kde.p_hat)[inner]
        tol = ctx.scale.z * (smooth.std_error + kde.se)[inner]
        rows.append((bool(np.all(gap <= tol)), f"worst gap/tolerance {np.max(gap / tol):.2f}"))
    return rows


@criterion("ou_survival_consistency", "cir_survival_consistency")
def density_cdf_consistency(ctx):
    """The Malliavin density's integral over [x, top], top the grid top,
    against the empirical mass of (x, top], at percentiles x of F: the
    identity at phi = (min(F, top) - x)^+, one column per probe."""
    rows = []
    for tag in MODELS:
        _, f, d, dens = ctx.weighted(tag)
        fc, top, x = f[:, None], dens.x_grid[-1], np.percentile(f, ctx.scale.survival_percentiles)
        rows.append(_identity(ctx, d, np.maximum(np.minimum(fc, top) - x, 0.0),
                              (fc > x) & (fc <= top)))
    return rows


@criterion("ou_price_triangle", "cir_price_triangle")
def price_triangle(ctx):
    """Density quadrature, mixing and plain MC, read off the weighted
    ensemble as ``avgvar price`` reads them, agree pairwise within scale.z
    SEs of their difference (worst pair's z shown), and |dq - mix| / mix < 2%.
    The rows share paths, but their per-path terms correlate by 0.063 at
    most, so hypot(se_a, se_b) is within 1% of the SE of a paired difference."""
    rows = []
    for tag in MODELS:
        dq, mix, plain, _ = pricing.ensemble_prices(ctx.weighted(tag)[0], STRIKE,
                                                    ctx.models[tag].params)
        rel = _rel(dq.value, mix.value)
        z = max(abs(a.value - b.value) / math.hypot(a.std_error, b.std_error)
                for a, b in ((dq, mix), (dq, plain), (mix, plain)))
        rows.append((z < ctx.scale.z and rel < 0.02, f"dq {dq.value:.4f} mix {mix.value:.4f} "
                     f"plain {plain.value:.4f} |dq-mix|/mix {rel:.3%} z={z:.2f}"))
    return rows


def _bs_oracle(s0, strike, r, T, sigma):
    """Independent Black-Scholes evaluation via math.erfc."""
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    return s0 * phi(d1) - strike * math.exp(-r * T) * phi(d2)


@criterion("bs_monotone_bounded", "bs_deterministic_vol")
def deterministic_vol_exactness(ctx):
    """Exact conditional-pricer checks: monotone in sigma, within no-arbitrage
    bounds, and the mixing price of a constant volatility equal to an
    independent oracle within 1e-9; the mean of a constant sample is its
    first value, so one draw stands for any size. Both go through
    pricing._phi, so a corrupted normal CDF turns them to FAIL."""
    prices = pricing.bs_conditional(np.linspace(0.05, 1.0, 40), 100.0, 100.0, 0.05, 1.0)
    mono = bool(np.all(np.diff(prices) > 0))
    lo_bound = max(100.0 - 100.0 * math.exp(-0.05), 0.0)
    bounds = bool(np.all(prices >= lo_bound - 1e-12) and np.all(prices <= 100.0 + 1e-12))
    oracle = _bs_oracle(100.0, 100.0, 0.05, 1.0, 0.2)
    mix = pricing.price_mixing(np.array([0.2]), 100.0, 100.0, 0.05, 1.0)
    gap = abs(mix.value - oracle)
    return [(mono and bounds, f"monotone={mono} bounds={bounds}"),
            (gap < 1e-9, f"|mixing - oracle| = {gap:.2e} (oracle {oracle:.6f})")]


@criterion("martingale")
def martingale(ctx):
    """E[e^{-rT} S_T] = s0 on the valid paths of the OU moment ensemble."""
    p, ens = OU_REFERENCE, ctx.moments("ou")
    return [_zcheck(ctx, math.exp(-p.r * p.T) * ens.terminal_asset[ens.valid], p.s0)]


@criterion("positivity_guards")
def positivity_guards(ctx):
    """No path of the weighted ensembles fails a guard, and every weight
    denominator |grad F_n|^2 is positive."""
    ensembles = [ctx.weighted(tag)[0] for tag in MODELS]
    failures = sum(e.n_failures for e in ensembles)
    positive = all(bool(np.all(e.denominator > 0)) for e in ensembles)
    return [(failures == 0 and positive,
             f"{failures} guard violations in 2 x {ctx.scale.n_density} paths, "
             f"denominators {'positive' if positive else 'NOT positive'}")]


@criterion("kernel_oracles")
def kernel_oracles(ctx):
    """The O(n) weights against the dense gradient and Hessian of F_n in
    reference.py, within 1e-8 relative: g . xi, tr H, g^T H g, |g|^2 and
    delta, on OU at alpha 1 and 100 and on CIR."""
    stream, ws = NoiseStream(ctx.seed, PURPOSE_VOL), Workspace()
    idx = range(ORACLE_PATHS)
    errs = []
    # alpha 100 decays fast: alpha dt = 1.6 on the oracle's 64-step grid,
    # where the paper's kernels span 87 decades
    for tag in ("ou", "ou_alpha100", "cir"):
        model = ctx.models[tag]
        simulate, weigh = drivers(model)
        grid = make_grid(model.params.T, ORACLE_STEPS)
        batch = simulate(model, grid, stream, idx, ws)
        wb = weigh(batch, model.params, ws)
        xi = stream.normal_matrix(idx, 0, ORACLE_STEPS)
        dW = xi * np.sqrt(grid.dt)
        # an OU batch keeps its last node row only: rebuild its paths
        states = (ou_path(model.params, grid, xi)[0] if isinstance(model, ValidatedOUModel)
                  else batch.states)
        for p in idx:
            ref = dense_weight(model, grid, states[:, p], dW[:, p])
            got = (wb.g_xi[p], wb.trace_h[p], wb.hessian_gg[p], wb.denominator[p], wb.delta[p])
            errs += [_rel(a, b) for a, b in zip(got, ref)]
    worst = float(max(errs))
    return [(worst < 1e-8, f"worst O(n)-vs-dense rel err {worst:.2e}")]


@criterion("reproducibility")
def reproducibility(ctx):
    """F and delta are bit-identical for one and two threads and a rerun."""
    ou = ctx.models["ou"]
    runs = [run_ensemble(ou, make_grid(1.0, REPRO_STEPS), REPRO_PATHS, ctx.seed, threads=t)
            for t in (1, 2, 1)]
    same = all(r.weight.tobytes() == runs[0].weight.tobytes()
               and r.avg_variance.tobytes() == runs[0].avg_variance.tobytes() for r in runs)
    return [(same, "bit-identical across threads and reruns" if same else "outputs differ")]


@criterion("ou_ibp_price_identity", "cir_ibp_price_identity")
def ibp_price_identity(ctx):
    """E[delta G(F)] = E[C(sqrt F)], C the discounted conditional price and
    G its antiderivative: the identity at phi = G."""
    rows = []
    for tag in MODELS:
        p = ctx.models[tag].params
        _, f, d, _ = ctx.weighted(tag)
        rows.append(_identity(ctx, d, pricing.payoff_integral(f, STRIKE, p.s0, p.r, p.T),
                              pricing.bs_conditional(np.sqrt(f), STRIKE, p.s0, p.r, p.T)))
    return rows


COARSE = tuple((f"ou_alpha{alpha:g}", COARSE_OU_STEPS) for alpha in COARSE_OU_ALPHAS) + tuple(
    (tag, n) for tag in ("cir", "cir_fast") for n in COARSE_CIR_STEPS)


@criterion(*(f"coarse_{tag}_n{n}_{row}" for tag, n in COARSE for row in ("zero_mean", "duality")))
def coarse_grid_duality(ctx):
    """E[delta] = 0 and E[F_n delta] = 1 on coarse grids, where the weight
    is exact for F_n and the paper's continuous one is not: OU at alpha
    1, 30 and 100 (k = 0.5 sqrt(alpha), n = 64), and CIR at the reference
    model and at a fast-decaying one (n = 8 and 16). Each grid draws its
    own noise, namespace NAMESPACE_COARSE + its index: in the density
    ensembles' namespace it would share their paths' leading normals, and
    its rows would move with theirs."""
    rows = []
    for i, (tag, n) in enumerate(COARSE):
        ens = ctx._ensemble(tag, ctx.scale.n_density, n, namespace=NAMESPACE_COARSE + i)
        f, d = ens.valid_samples()
        rows += [_zcheck(ctx, d), _identity(ctx, d, f, 1.0)]
    return rows


# registry order is the acceptance numbering: test_criterion_01_ou_moments, ...
CRITERIA = (ou_moments, cir_moments, zero_mean_weights, duality, density_normalization,
            density_vs_kde, density_cdf_consistency, price_triangle,
            deterministic_vol_exactness, martingale, positivity_guards, kernel_oracles,
            reproducibility, ibp_price_identity, coarse_grid_duality)


def run_criterion(check, ctx):
    return [CheckResult(name, bool(passed), detail)
            for name, (passed, detail) in zip(check.rows, check(ctx), strict=True)]


def run_battery(seed=SEED, threads=1):
    """Run every criterion at QUICK scale; returns a list of CheckResult."""
    ctx = CheckContext(QUICK, seed, threads)
    return [row for check in CRITERIA for row in run_criterion(check, ctx)]


def format_table(rows):
    lines = []
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(f"{status}  {row.name:<26s} {row.detail}")
    n_fail = sum(not r.passed for r in rows)
    lines.append(f"{'OK' if n_fail == 0 else 'FAILED'}  "
                 f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return "\n".join(lines)
