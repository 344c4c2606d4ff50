import dataclasses
import math

import numpy as np
import pytest

from avgvar import OUParams, make_grid, run_ensemble, simulate_ou_paths, validate_ou
from avgvar.reference import dense_weight, ou_path
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_ou import skorokhod_weight_ou
from avgvar.workspace import Workspace
from paper_weight import _k_matrix
from test_weights import discrete_divergence

SEED = 20240601

# int int (e^{-|t1-t2|} - e^{-(t1+t2)}) over [0,1]^2 = 2/e - (1 - 1/e)^2,
# recomputed symbolically; equals 4x the constant printed in the source
# derivation chain, which slips a factor in an intermediate rescaling.
G_FLAT_UNIT = 2.0 / math.e - (1.0 - 1.0 / math.e) ** 2


def _ou_model(alpha, vol, T=1.0):
    """An OU model with k = 0.5 sqrt(alpha), the reference one at alpha = 1."""
    return validate_ou(OUParams(alpha=alpha, k=0.5 * math.sqrt(alpha), y0=0.0,
                                s0=100.0, r=0.05, T=T), vol)


def _fixed_batch(ou_model, grid, n_paths=5):
    """Simulated paths, in a workspace of their own."""
    return simulate_ou_paths(ou_model, grid, NoiseStream(SEED, PURPOSE_VOL), range(n_paths),
                             Workspace())


def _fixed_normals(grid, n_paths=5):
    """The step normals of ``_fixed_batch``, time-major, drawn again from
    the stream: an OU batch keeps none."""
    return NoiseStream(SEED, PURPOSE_VOL).normal_matrix(range(n_paths), 0, grid.n_steps)


def _weight_with_nu(ou_model, grid, nu):
    """The weight of simulated paths whose node values nu are replaced (and
    nu' zeroed); the denominator depends on nu alone. The weight spends nu."""
    batch = dataclasses.replace(_fixed_batch(ou_model, grid, n_paths=nu.shape[1]),
                                nu=nu, nu_prime=np.zeros_like(nu))
    return skorokhod_weight_ou(batch, ou_model.params, Workspace())


def test_flat_nu_matches_closed_form(ou_model):
    """With nu = 1, D_h F = (2k / T) int_h^T e^{-a(t-h)} dt, so
    |DF|^2 = (2 k^2 / (a T^2)) int int K(t1, t2) dt1 dt2 with the kernel
    K of the paper's G; the discrete |grad F_n|^2 converges to it."""
    mid = (np.arange(2048) + 0.5) / 2048
    riemann = _k_matrix(mid, 1.0).sum() / 2048**2  # independent midpoint sum
    assert riemann == pytest.approx(G_FLAT_UNIT, rel=1e-4)
    p = ou_model.params
    g_sq = _weight_with_nu(ou_model, make_grid(1.0, 2048), np.ones((2049, 1))).denominator[0]
    assert g_sq == pytest.approx(2.0 * p.k**2 / (p.alpha * p.T**2) * G_FLAT_UNIT, rel=1e-6)


def test_zero_nu_gives_zero_g(ou_model, grid64):
    with np.errstate(divide="ignore", invalid="ignore"):
        wb = _weight_with_nu(ou_model, grid64, np.zeros((65, 1)))
    assert wb.denominator[0] == 0.0
    # 0 / 0: the weight flags nothing itself, run_ensemble fails the path on |g|^2
    assert np.isnan(wb.delta[0])


def test_g_scaling_is_exactly_quadratic(ou_model, grid64):
    nu = _fixed_batch(ou_model, grid64, n_paths=4).nu
    g1 = _weight_with_nu(ou_model, grid64, nu.copy()).denominator
    g2 = _weight_with_nu(ou_model, grid64, 2.0 * nu).denominator
    assert np.array_equal(g2, 4.0 * g1)  # powers of two: exact in float


@pytest.mark.parametrize("alpha", [0.05, 1.0, 30.0, 100.0])
def test_weight_terms_match_brute_force(alpha, ref_vol, grid64):
    """g . xi, tr H, g^T H g and |g|^2 of the running sums against the dense
    gradient and Hessian of F_n. The weight spends the batch's nu and leaves
    its nu', noise sum and states as they were."""
    model = _ou_model(alpha, ref_vol)
    batch = _fixed_batch(model, grid64)
    xi = _fixed_normals(grid64)
    y, _ = ou_path(model.params, grid64, xi)
    dW = xi * math.sqrt(grid64.dt)
    kept = {name: getattr(batch, name).copy() for name in ("nu_prime", "nu_noise", "states")}
    wb = skorokhod_weight_ou(batch, model.params, Workspace())
    assert np.all(wb.denominator > 0) and np.all(np.isfinite(wb.delta))
    for p in range(5):
        g_xi, trace_h, hessian_gg, g_sq, _ = dense_weight(model, grid64, y[:, p], dW[:, p])
        assert abs(wb.g_xi[p] - g_xi) / abs(g_xi) < 1e-12
        assert abs(wb.trace_h[p] - trace_h) / abs(trace_h) < 1e-12
        assert abs(wb.hessian_gg[p] - hessian_gg) / abs(hessian_gg) < 1e-12
        assert abs(wb.denominator[p] - g_sq) / g_sq < 1e-12
        assert wb.delta[p] == ((wb.g_xi[p] - wb.trace_h[p]) / wb.denominator[p]
                               + 2.0 * wb.hessian_gg[p] / wb.denominator[p] ** 2)
    for name, before in kept.items():
        assert np.array_equal(getattr(batch, name), before), name


@pytest.mark.parametrize("alpha, y0, n", [(1.0, 0.0, 512), (1.0, 0.3, 512), (100.0, 0.0, 64)],
                         ids=["demo", "y0=0.3", "alpha=100"])
def test_pass_g_xi_is_the_gradient_along_the_normals(alpha, y0, n, ref_vol):
    """The path pass sums w_j nu_j D_j over the noise part D_j of Y_j, and
    never keeps a normal; the weight reads g . xi = sum_j c_j f'_j D_j off
    that sum. On 2048 paths it equals
    sum_j xi_j g_j, with xi the stream's normals and g from the adjoint
    lambda_n = c_n f'_n, lambda_j = c_j f'_j + Phi_y lambda_{j+1},
    g_{j-1} = Phi_xi lambda_j, to 1e-13 relative to sum_j |xi_j g_j|."""
    model = validate_ou(OUParams(alpha=alpha, k=0.5 * math.sqrt(alpha), y0=y0, s0=100.0,
                                 r=0.05, T=1.0), ref_vol)
    grid = make_grid(1.0, n)
    batch = _fixed_batch(model, grid, n_paths=2048)
    xi = _fixed_normals(grid, n_paths=2048)
    decay = math.exp(-alpha * grid.dt)
    step_sd = model.params.k * math.sqrt(-math.expm1(-2.0 * alpha * grid.dt) / (2.0 * alpha))
    lam = batch.nu * (2.0 * grid.trapezoid_weights / grid.T)[:, None]
    for j in range(n - 1, 0, -1):
        lam[j] += decay * lam[j + 1]
    terms = xi * (step_sd * lam[1:])
    g_xi = skorokhod_weight_ou(batch, model.params, Workspace()).g_xi
    gap = np.abs(g_xi - terms.sum(axis=0))
    assert np.all(gap <= 1e-13 * np.abs(terms).sum(axis=0)), gap.max()


def test_weight_matches_discrete_divergence(ref_vol):
    """delta is the divergence of grad F_n / |grad F_n|^2 over the step
    normals, to roundoff, also at alpha = 30, where the paper's weight is
    off by O(alpha dt)."""
    grid = make_grid(1.0, 64)
    for alpha in (1.0, 30.0):
        model = _ou_model(alpha, ref_vol)
        batch = _fixed_batch(model, grid, n_paths=3)
        xi = _fixed_normals(grid, n_paths=3)
        y, _ = ou_path(model.params, grid, xi)
        dW = xi * math.sqrt(grid.dt)
        wb = skorokhod_weight_ou(batch, model.params, Workspace())
        for p in range(3):
            div = discrete_divergence(model, grid, y[:, p], dW[:, p])
            assert wb.delta[p] == pytest.approx(div, rel=1e-8)


def test_long_horizon_ensemble_has_finite_weights(ref_vol):
    """At alpha = 1 and T = 400 the paper's kernels need e^{alpha t} up to
    e^400, past float64; the scheme's own derivatives decay step by step."""
    model = _ou_model(1.0, ref_vol, T=400.0)
    res = run_ensemble(model, make_grid(400.0, 512), 256, SEED)
    assert res.n_failures == 0 and np.all(np.isfinite(res.weight))


def test_duality_small_ensemble(ou_model):
    grid = make_grid(1.0, 256)
    stream, ws = NoiseStream(SEED, PURPOSE_VOL), Workspace()
    f = np.empty(8000)
    d = np.empty(8000)
    for lo in range(0, 8000, 2048):
        idx = range(lo, min(lo + 2048, 8000))
        b = simulate_ou_paths(ou_model, grid, stream, idx, ws)
        wb = skorokhod_weight_ou(b, ou_model.params, ws)
        assert np.all(wb.denominator > 0) and np.all(np.isfinite(wb.delta))
        f[idx] = b.avg_variance
        d[idx] = wb.delta
    for stat in (d, f * d - 1.0, f * f * d - 2.0 * f, np.sin(f) * d - np.cos(f)):
        z = abs(stat.mean()) / (stat.std(ddof=1) / math.sqrt(stat.size))
        assert z < 3.89
    # below the essential infimum c^2 the indicator is identically one, so
    # the density estimate there is mean(delta): zero within noise
    from avgvar import malliavin_density
    below = np.linspace(0.002, 0.009, 21)  # all under c^2 = 0.01 <= min F
    assert below[-1] < f.min()
    dens = malliavin_density(f, d, below)
    se_w = d.std(ddof=1) / math.sqrt(d.size)
    assert np.all(np.abs(dens.p_hat) < 3.89 * se_w)
