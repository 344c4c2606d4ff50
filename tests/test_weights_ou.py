import dataclasses
import math

import numpy as np
import pytest

from avgvar import (OUParams, make_grid, ou_paths_from_increments,
                    simulate_ou_paths, validate_ou)
from avgvar.reference import ou_weight_double_sum
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_ou import skorokhod_weight_ou
from ou_three_kernel import (c_double_sum, c_of_h, dh_eta_double_sum, eta_nodes,
                             g_double_sum, psi_closed_form, weight_terms)

SEED = 20240601

# int int (e^{-|t1-t2|} - e^{-(t1+t2)}) over [0,1]^2 = 2/e - (1 - 1/e)^2,
# recomputed symbolically; equals 4x the constant printed in the source
# derivation chain, which slips a factor in an intermediate rescaling.
G_FLAT_UNIT = 2.0 / math.e - (1.0 - 1.0 / math.e) ** 2


def dh_eta_matrix(nu_vals, nu_prime_vals, grid, alpha, k, G, C):
    """Full (h, t) matrix of D_h eta_t for one path.

    Returns D[l, i] = D_{t_l} eta_{t_i}. O(n^2) memory, so keep n small.
    """
    f = np.asarray(nu_vals, dtype=float)
    g = np.asarray(nu_prime_vals, dtype=float)
    t = grid.t
    E = np.exp(-alpha * t)
    A = np.exp(alpha * t)
    scale = alpha * grid.T  # the k of D_h Y cancels the 1/k of eta

    # e^{-a (t_i - t_l)} for l < i, else 0 (strict indicator)
    lag = np.where(t[None, :] > t[:, None],
                   np.exp(-alpha * (t[None, :] - t[:, None])), 0.0)
    term1 = lag * g[None, :] / G
    term2 = (2.0 * A[:, None] * C[:, None]) * f[None, :] / G**2
    return scale * E[None, :] * (term1 - term2)


def _ou_model(alpha, vol):
    """An OU model with k = 0.5 sqrt(alpha), the reference one at alpha = 1."""
    return validate_ou(OUParams(alpha=alpha, k=0.5 * math.sqrt(alpha), y0=0.0,
                                s0=100.0, r=0.05, mu=0.05, T=1.0), vol)


def _fixed_batch(ou_model, grid, n_paths=5):
    return simulate_ou_paths(ou_model, grid, NoiseStream(SEED, PURPOSE_VOL),
                             np.arange(n_paths))


def _weight_with_nu(ou_model, grid, nu):
    """The weight of simulated paths whose node values nu are replaced (and
    nu' zeroed); G depends on nu alone."""
    batch = dataclasses.replace(_fixed_batch(ou_model, grid, n_paths=nu.shape[1]),
                                nu=nu, nu_prime=np.zeros_like(nu))
    return skorokhod_weight_ou(batch, ou_model.params)


def test_flat_nu_matches_closed_form(ou_model):
    assert psi_closed_form(1.0, 1.0) == pytest.approx(G_FLAT_UNIT, rel=1e-14)
    grid = make_grid(1.0, 2048)
    g_trap = _weight_with_nu(ou_model, grid, np.ones((2049, 1))).denominator[0]
    assert g_trap == pytest.approx(G_FLAT_UNIT, rel=1e-4)
    # independent route: plain Riemann double sum on midpoints
    mid = (np.arange(2048) + 0.5) / 2048
    k_mid = np.exp(-np.abs(mid[:, None] - mid[None, :])) - np.exp(-(mid[:, None] + mid[None, :]))
    riemann = k_mid.sum() / 2048**2
    assert riemann == pytest.approx(G_FLAT_UNIT, rel=1e-4)


def test_zero_nu_gives_zero_g(ou_model, grid64):
    with np.errstate(divide="ignore", invalid="ignore"):
        wb = _weight_with_nu(ou_model, grid64, np.zeros((65, 1)))
    assert wb.denominator[0] == 0.0
    # 0 / 0: the weight flags nothing itself, run_ensemble fails the path on G
    assert np.isnan(wb.delta[0])


def test_g_scaling_is_exactly_quadratic(ou_model, grid64):
    nu = _fixed_batch(ou_model, grid64, n_paths=4).nu
    g1 = _weight_with_nu(ou_model, grid64, nu).denominator
    g2 = _weight_with_nu(ou_model, grid64, 2.0 * nu).denominator
    assert np.array_equal(g2, 4.0 * g1)  # powers of two: exact in float


def test_eta_flat_nu_profile(ou_model):
    grid = make_grid(1.0, 2048)
    nu = np.ones((2049, 1))
    g = _weight_with_nu(ou_model, grid, nu).denominator
    eta = eta_nodes(nu.T, grid, 1.0, 0.5, g)
    # (alpha T / k) e^{-t} / G = 2 e^{-t} / G with the recomputed G
    assert eta[0, 0] == pytest.approx(2.0 / G_FLAT_UNIT, rel=1e-4)
    assert eta[0, -1] == pytest.approx(2.0 * math.exp(-1.0) / G_FLAT_UNIT, rel=1e-4)
    assert np.all(np.diff(eta[0]) < 0)  # monotone decreasing for constant nu
    assert np.all(eta > 0)


def test_factorized_g_and_c_match_brute_force(ou_model, grid64):
    """The weight's G, and the C(h) of the three-kernel oracle."""
    batch = _fixed_batch(ou_model, grid64)
    nu, nup = batch.nu, batch.nu_prime
    g_fast = skorokhod_weight_ou(batch, ou_model.params).denominator
    c_fast = c_of_h(nu.T, nup.T, grid64, 1.0)
    for p in range(5):
        g_ref = g_double_sum(nu[:, p], grid64, 1.0)
        assert abs(g_fast[p] - g_ref) / g_ref < 1e-12
        c_ref = c_double_sum(nu[:, p], nup[:, p], grid64, 1.0)
        scale = np.max(np.abs(c_ref))
        assert np.max(np.abs(c_fast[p] - c_ref)) / scale < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 1.0])
def test_weight_matches_three_kernel_route(alpha, ref_vol):
    """Where C(h) as a total minus a prefix keeps its digits (small alpha),
    the running sums agree with the route through G, eta and C(h)."""
    model = _ou_model(alpha, ref_vol)
    batch = _fixed_batch(model, make_grid(1.0, 512), n_paths=300)
    nu_before, nup_before = batch.nu.copy(), batch.nu_prime.copy()
    wb = skorokhod_weight_ou(batch, model.params)
    ito, trace, G = weight_terms(batch, model.params)
    size = np.abs(ito) + np.abs(trace)
    assert np.max(np.abs(wb.term_ito - ito) / size) <= 1e-12
    assert np.max(np.abs(wb.term_trace - trace) / size) <= 1e-12
    assert np.max(np.abs(wb.delta - (ito - trace)) / size) <= 1e-12
    assert np.max(np.abs(wb.denominator - G) / G) <= 1e-12
    # the sums run in their own buffers, never in the inputs
    assert np.array_equal(batch.nu, nu_before)
    assert np.array_equal(batch.nu_prime, nup_before)


def test_dh_eta_matches_two_term_brute_force(ou_model, grid64):
    batch = _fixed_batch(ou_model, grid64, n_paths=2)
    nu, nup = batch.nu, batch.nu_prime
    p = ou_model.params
    rng = np.random.default_rng(1)
    for pth in range(2):
        G = g_double_sum(nu[:, pth], grid64, p.alpha)
        C = c_double_sum(nu[:, pth], nup[:, pth], grid64, p.alpha)
        D = dh_eta_matrix(nu[:, pth], nup[:, pth], grid64, p.alpha, p.k, G, C)
        scale = np.max(np.abs(D))
        for _ in range(20):
            l = int(rng.integers(0, 65))
            i = int(rng.integers(0, 65))
            d_ref = dh_eta_double_sum(nu[:, pth], nup[:, pth], grid64, p.alpha, p.k, l, i)
            assert abs(D[l, i] - d_ref) <= 1e-10 * max(abs(d_ref), scale)


def test_dh_eta_indicator_zone(ou_model, grid64):
    # with the correction frozen to zero (C == 0), D_h eta_t vanishes for h >= t
    batch = _fixed_batch(ou_model, grid64, n_paths=1)
    nu, nup = batch.nu, batch.nu_prime
    G = g_double_sum(nu[:, 0], grid64, 1.0)
    D = dh_eta_matrix(nu[:, 0], nup[:, 0], grid64, 1.0, 0.5, G, np.zeros(65))
    upper = np.triu_indices(65)  # l >= i
    assert np.all(D[upper[0], upper[1]][upper[0] >= upper[1]] == 0.0)
    assert np.any(D != 0.0)


@pytest.mark.parametrize("alpha", [0.05, 1.0, 30.0, 100.0])
def test_weight_terms_match_brute_force(alpha, ref_vol, grid64):
    model = _ou_model(alpha, ref_vol)
    batch = _fixed_batch(model, grid64)
    nu, nup = batch.nu, batch.nu_prime
    wb = skorokhod_weight_ou(batch, model.params)
    assert np.all(wb.denominator > 0) and np.all(np.isfinite(wb.delta))
    for p in range(5):
        ito_ref, trace_ref, g_ref = ou_weight_double_sum(
            nu[:, p], nup[:, p], batch.dW[:, p], grid64, alpha, model.params.k)
        assert abs(wb.term_ito[p] - ito_ref) / abs(ito_ref) < 1e-12
        assert abs(wb.term_trace[p] - trace_ref) / abs(trace_ref) < 1e-12
        assert abs(wb.denominator[p] - g_ref) / g_ref < 1e-12
        assert wb.delta[p] == wb.term_ito[p] - wb.term_trace[p]


def test_dh_eta_matches_pathwise_finite_differences(ou_model):
    """Perturb one driving increment and compare d eta / d dW with D_h eta."""
    grid = make_grid(1.0, 128)
    p = ou_model.params
    batch = _fixed_batch(ou_model, grid, n_paths=1)
    dW0 = batch.dW[:, 0]

    def eta_of(dW):
        b = ou_paths_from_increments(ou_model, grid, dW[:, None])
        G = skorokhod_weight_ou(b, p).denominator
        return eta_nodes(b.nu.T, grid, p.alpha, p.k, G)[0]

    nu, nup = batch.nu, batch.nu_prime
    G = g_double_sum(nu[:, 0], grid, p.alpha)
    C = c_double_sum(nu[:, 0], nup[:, 0], grid, p.alpha)
    D = dh_eta_matrix(nu[:, 0], nup[:, 0], grid, p.alpha, p.k, G, C)

    eps = 1e-5
    for l, i in [(10, 90), (40, 127), (70, 20), (0, 64)]:
        up, down = dW0.copy(), dW0.copy()
        up[l] += eps
        down[l] -= eps
        fd = (eta_of(up)[i] - eta_of(down)[i]) / (2 * eps)
        if D[l, i] != 0.0:
            assert fd == pytest.approx(D[l, i], rel=2e-2)  # O(dt) discretization gap
        else:
            assert abs(fd) < 1e-6


def test_weight_matches_discrete_divergence(ou_model):
    """delta == sum_l zeta_l dW_l - dt * sum_l d zeta_l / d dW_l up to O(dt).

    The right-hand side is the finite-dimensional divergence computed by
    numerical differentiation through the whole pipeline; it validates the
    weight formula end to end, independent of any kernel algebra.
    """
    n = 64
    grid = make_grid(1.0, n)
    p = ou_model.params
    batch = _fixed_batch(ou_model, grid, n_paths=2)
    wb = skorokhod_weight_ou(batch, ou_model.params)

    w_suffix = np.full(n + 1, grid.dt)
    w_suffix[-1] = 0.5 * grid.dt

    def zeta_of(dW):
        b = ou_paths_from_increments(ou_model, grid, dW[:, None])
        G = skorokhod_weight_ou(b, p).denominator
        eta = eta_nodes(b.nu.T, grid, p.alpha, p.k, G)[0]
        out = np.empty(n + 1)
        for l in range(n + 1):
            w_l = np.full(n + 1, grid.dt)
            w_l[l] = w_l[-1] = 0.5 * grid.dt
            w_l[:l] = 0.0
            out[l] = math.exp(p.alpha * grid.t[l]) * np.sum(w_l * eta)
        return out

    eps = 1e-6
    for pth in range(2):
        dW0 = batch.dW[:, pth]
        zeta = zeta_of(dW0)
        ito = float(np.sum(zeta[:n] * dW0))
        trace = 0.0
        for l in range(n):
            up, down = dW0.copy(), dW0.copy()
            up[l] += eps
            down[l] -= eps
            trace += (zeta_of(up)[l] - zeta_of(down)[l]) / (2 * eps)
        div = ito - grid.dt * trace
        assert wb.delta[pth] == pytest.approx(div, rel=0.05)


def test_duality_small_ensemble(ou_model):
    grid = make_grid(1.0, 256)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    f = np.empty(8000)
    d = np.empty(8000)
    for lo in range(0, 8000, 2048):
        idx = np.arange(lo, min(lo + 2048, 8000))
        b = simulate_ou_paths(ou_model, grid, stream, idx)
        wb = skorokhod_weight_ou(b, ou_model.params)
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
