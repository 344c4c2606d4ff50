import math

import numpy as np
import pytest

from avgvar import (CIRParams, CIRPathBatch, NonPositiveDenominator, make_grid,
                    cir_paths_from_increments, simulate_cir_paths, validate_cir)
from avgvar.reference import (cir_weight_triple_sum, i_triple_sum, psi_matrix,
                              _suffix_trapezoid_weights)
from avgvar.rng import PURPOSE_BRIDGE, PURPOSE_VOL, NoiseStream
from bridge import refine_increments
from avgvar.weights_cir import (cir_kernel, log_phi_nodes, q_constant,
                                skorokhod_weight_cir)

SEED = 20240601

# fast mean reversion over a long horizon: on a 64-step grid the one-step
# ratios psi_step go down to about 0.62, far from the psi ~ 1 of the demo model
FAST_DECAY = CIRParams(b=20.0, k=1.5, z0=0.5, s0=100.0, r=0.05, mu=0.05, T=2.0)


def psi_pair(log_phi_row, h_index, t_index):
    """psi_{t_h, t_t} for one path from log-phi differences (h <= t)."""
    return float(np.exp(log_phi_row[t_index] - log_phi_row[h_index]))


def require_positive_i(I):
    """Raise NonPositiveDenominator unless every I is strictly positive."""
    I = np.atleast_1d(I)
    if not np.all(np.isfinite(I)) or np.any(I <= 0):
        worst = float(np.nanmin(I))
        raise NonPositiveDenominator(
            f"denominator I must be > 0 on every path (min {worst!r})")
    return I


def _flat_z_batch(z0, grid):
    """Frozen Z == z0 on the grid (for closed-form kernel checks)."""
    n = grid.n_steps
    r = grid.t / z0
    return CIRPathBatch(grid=grid, path_indices=np.array([0]),
                        dW=np.zeros((1, n)), states=np.full((1, n + 1), z0),
                        avg_variance=np.array([z0]),
                        recip_integral=r[None, :],
                        floored_steps=np.array([0]), bad=np.array([False]))


def test_q_constant(cir_model):
    assert q_constant(cir_model.params) == pytest.approx(0.4921875, abs=1e-15)


def test_flat_z_log_phi_is_linear(cir_model):
    grid = make_grid(1.0, 64)
    batch = _flat_z_batch(2.0, grid)
    q = q_constant(cir_model.params)
    lp = log_phi_nodes(batch, q)
    expected = -(0.5 + q / 2.0) * grid.t
    assert np.allclose(lp[0], expected, rtol=1e-14)


def test_flat_z_f_integral_closed_form(cir_model):
    """F(1) = (e^{2 gamma} - 1) / (2 gamma) with gamma = 1/2 + q for Z == 1."""
    grid = make_grid(1.0, 4096)
    batch = _flat_z_batch(1.0, grid)
    kern = cir_kernel(batch, cir_model.params)
    gamma = 0.5 + q_constant(cir_model.params)
    closed = (math.exp(2 * gamma) - 1.0) / (2.0 * gamma)
    f_impl = math.exp(-2.0 * log_phi_nodes(batch, kern.q)[0, -1]) * kern.f_hat[0, -1]
    assert f_impl == pytest.approx(closed, rel=1e-4)
    # independent Riemann cross-check of the same integral
    mid = (np.arange(4096) + 0.5) / 4096
    riemann = float(np.exp(2 * gamma * mid).sum() / 4096)
    assert riemann == pytest.approx(closed, rel=1e-4)


def test_psi_bounds_and_cocycle(cir_model):
    grid = make_grid(1.0, 256)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL),
                               np.arange(4))
    kern = cir_kernel(batch, cir_model.params)
    assert np.all(kern.psi_step <= 1.0 + 1e-15)
    log_phi = log_phi_nodes(batch, kern.q)
    rng = np.random.default_rng(0)
    for _ in range(50):
        pth = int(rng.integers(0, 4))
        h, s, t = sorted(rng.integers(0, 257, size=3))
        lp = log_phi[pth]
        lhs = psi_pair(lp, h, t)
        rhs = psi_pair(lp, h, s) * psi_pair(lp, s, t)
        assert abs(lhs - rhs) < 1e-12
        assert psi_pair(lp, t, t) == 1.0
        assert 0.0 < lhs <= 1.0


def test_psi_matrix_agrees_with_psi_pair(cir_model):
    grid = make_grid(1.0, 64)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL), [0])
    kern = cir_kernel(batch, cir_model.params)
    lp = log_phi_nodes(batch, kern.q)[0]
    mat = psi_matrix(lp)
    rng = np.random.default_rng(1)
    for _ in range(50):
        h, t = sorted(rng.integers(0, 65, size=2))
        assert abs(mat[h, t] - psi_pair(lp, h, t)) < 1e-12


def test_i_scaling_is_exactly_quadratic(cir_model):
    # multiplying the integrand factor g = sqrt(Z) phi by a constant a
    # multiplies I by a^2 exactly; realized by scaling Z with psi frozen
    grid = make_grid(1.0, 32)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL), [0])
    kern = cir_kernel(batch, cir_model.params)
    lp = log_phi_nodes(batch, kern.q)[0]
    base = i_triple_sum(batch.states[0], lp, grid)
    scaled = i_triple_sum(4.0 * batch.states[0], lp, grid)
    assert scaled == pytest.approx(4.0 * base, rel=1e-14)


@pytest.mark.parametrize("fast_decay", [False, True], ids=["demo", "fast_decay"])
def test_kernel_and_weight_match_brute_force(cir_model, fast_decay):
    model = validate_cir(FAST_DECAY, density_mode=True) if fast_decay else cir_model
    grid = make_grid(model.params.T, 64)
    batch = simulate_cir_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL),
                               np.arange(5))
    kern = cir_kernel(batch, model.params)
    wb = skorokhod_weight_cir(batch, model.params, kern)
    assert not wb.bad.any()
    log_phi = log_phi_nodes(batch, kern.q)
    for p in range(5):
        a, b, c2, c3, i_ref = cir_weight_triple_sum(
            batch.states[p], log_phi[p], batch.dW[p], grid, model.params)
        assert abs(kern.I[p] - i_ref) / i_ref < 1e-8
        assert abs(wb.term_ito[p] - a) / abs(a) < 1e-8
        assert abs(wb.term_trace[p] - b) / abs(b) < 1e-8
        assert abs(wb.term_dphi[p] - c2) / abs(c2) < 1e-8
        assert abs(wb.term_denom[p] - c3) / abs(c3) < 1e-8
        assert wb.delta[p] == (wb.term_ito[p] - wb.term_trace[p]
                               - wb.term_dphi[p] + wb.term_denom[p])


def test_positive_i_on_simulated_paths(cir_model):
    grid = make_grid(1.0, 256)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    for lo in range(0, 10000, 2048):
        idx = np.arange(lo, min(lo + 2048, 10000))
        batch = simulate_cir_paths(cir_model, grid, stream, idx)
        kern = cir_kernel(batch, cir_model.params)
        require_positive_i(kern.I)


def test_weight_matches_discrete_divergence(cir_model):
    """Full-weight validation against the finite-dimensional divergence."""
    n = 64
    grid = make_grid(1.0, n)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL),
                               np.arange(2))
    wb = skorokhod_weight_cir(batch, cir_model.params)
    p = cir_model.params

    def zeta_of(dW):
        b = cir_paths_from_increments(cir_model, grid, dW[None, :])
        kern = cir_kernel(b, p)
        psi = psi_matrix(log_phi_nodes(b, kern.q)[0])
        sqrt_z = np.sqrt(b.states[0])
        out = np.empty(n + 1)
        for j in range(n + 1):
            w_suf = _suffix_trapezoid_weights(n + 1, grid.dt, j)
            out[j] = np.sum(w_suf * sqrt_z * psi[j, :])
        return (p.T / p.k) * out / kern.I[0]

    eps = 1e-6
    for pth in range(2):
        dW0 = batch.dW[pth]
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


def test_duality_small_ensemble(cir_model):
    grid = make_grid(1.0, 256)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    f = np.empty(8000)
    d = np.empty(8000)
    for lo in range(0, 8000, 2048):
        idx = np.arange(lo, min(lo + 2048, 8000))
        b = simulate_cir_paths(cir_model, grid, stream, idx)
        wb = skorokhod_weight_cir(b, cir_model.params)
        assert not wb.bad.any()
        f[idx] = b.avg_variance
        d[idx] = wb.delta
    # E[sigma_tilde^2] = b + (z0 - b)(1 - e^{-T})/T = 1 exactly here
    for stat in (d, f * d - 1.0, f * f * d - 2.0 * f):
        z = abs(stat.mean()) / (stat.std(ddof=1) / math.sqrt(stat.size))
        assert z < 3.89
    mean_f = f.mean()
    assert mean_f == pytest.approx(1.0, abs=3.89 * f.std(ddof=1) / math.sqrt(f.size))


def test_kernel_survives_extreme_log_phi_range():
    """Tiny z0 over a long horizon drives q*R into the hundreds: raw
    exp(-2 log phi) would overflow float64 by hundreds of orders of
    magnitude, but the ratio-form recursions must stay finite and keep
    agreeing with the (equally ratio-safe) brute-force twins."""
    from avgvar import CIRParams, validate_cir
    params = CIRParams(b=1.0, k=0.25, z0=1e-5, s0=100.0, r=0.05, mu=0.05, T=30.0)
    model = validate_cir(params, density_mode=True)
    grid = make_grid(30.0, 64)
    batch = simulate_cir_paths(model, grid, NoiseStream(1, PURPOSE_VOL),
                               np.arange(2))
    kern = cir_kernel(batch, params)
    log_phi = log_phi_nodes(batch, kern.q)
    assert -2.0 * log_phi.min() > 709  # naive arithmetic would overflow
    wb = skorokhod_weight_cir(batch, params, kern)
    assert not wb.bad.any()
    assert np.all(np.isfinite(wb.delta))
    require_positive_i(kern.I)
    for p in range(2):
        a, b, c2, c3, i_ref = cir_weight_triple_sum(
            batch.states[p], log_phi[p], batch.dW[p], grid, params)
        assert abs(kern.I[p] - i_ref) / i_ref < 1e-8
        assert abs(wb.term_denom[p] - c3) / abs(c3) < 1e-8


def test_weight_stable_under_bridge_refinement(cir_model):
    """delta(n=512) vs delta(n=2048) on matched (bridge-refined) noise."""
    n0 = 512
    stream = NoiseStream(SEED, PURPOSE_VOL)
    n_paths = 200
    dW = stream.normal_matrix(np.arange(n_paths), n0) * math.sqrt(1.0 / n0)
    coarse = cir_paths_from_increments(cir_model, make_grid(1.0, n0), dW)
    w_coarse = skorokhod_weight_cir(coarse, cir_model.params)

    fine_dW = dW
    n = n0
    for level in range(2):  # 512 -> 2048
        z = NoiseStream(SEED, PURPOSE_BRIDGE + level).normal_matrix(np.arange(n_paths), n)
        fine_dW = refine_increments(fine_dW, 1.0 / n, z)
        n *= 2
    fine = cir_paths_from_increments(cir_model, make_grid(1.0, n), fine_dW)
    w_fine = skorokhod_weight_cir(fine, cir_model.params)

    gap = np.abs(w_coarse.delta - w_fine.delta)
    spread = w_coarse.delta.std(ddof=1)
    assert gap.mean() < 0.05 * spread
