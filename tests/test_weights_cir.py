import math

import numpy as np
import pytest

from avgvar import CIRParams, make_grid, simulate_cir_paths, validate_cir
from avgvar.paths import TILE_ROWS, node_sum
from avgvar.reference import dense_weight
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_cir import cir_kernel, skorokhod_weight_cir
from avgvar.workspace import Workspace
from bridge import PURPOSE_BRIDGE, paths_from_increments, refine_increments
from paper_weight import (_inner_trapezoid_weights, i_triple_sum, log_phi, psi_matrix,
                          q_constant)
from test_weights import discrete_divergence

SEED = 20240601


def psi_pair(log_phi_row, h_index, t_index):
    """psi_{t_h, t_t} for one path from log-phi differences (h <= t)."""
    return float(np.exp(log_phi_row[t_index] - log_phi_row[h_index]))


# the paper's kernel psi_{h,t} = phi(t) / phi(h), which the paper's weight
# in paper_weight.py is built from


def test_q_constant(cir_model):
    assert q_constant(cir_model.params) == pytest.approx(0.4921875, abs=1e-15)


def test_flat_z_log_phi_is_linear(cir_model):
    grid = make_grid(1.0, 64)
    lp = log_phi(np.full(65, 2.0), grid, cir_model.params)
    q = q_constant(cir_model.params)
    assert np.allclose(lp, -(0.5 + q / 2.0) * grid.t, rtol=1e-14)


def test_flat_z_f_integral_closed_form(cir_model):
    """F(1) = int_0^1 phi(h)^{-2} dh = (e^{2 gamma} - 1) / (2 gamma) with
    gamma = 1/2 + q for Z == 1, by the paper's inner trapezoid of psi^2."""
    grid = make_grid(1.0, 4096)
    lp = log_phi(np.ones(4097), grid, cir_model.params)
    psi_sq = np.exp(2.0 * (lp[-1] - lp))
    f_hat = np.sum(_inner_trapezoid_weights(4097, grid.dt, 4096) * psi_sq)
    gamma = 0.5 + q_constant(cir_model.params)
    closed = (math.exp(2 * gamma) - 1.0) / (2.0 * gamma)
    assert math.exp(-2.0 * lp[-1]) * f_hat == pytest.approx(closed, rel=1e-4)
    # independent Riemann cross-check of the same integral
    mid = (np.arange(4096) + 0.5) / 4096
    riemann = float(np.exp(2 * gamma * mid).sum() / 4096)
    assert riemann == pytest.approx(closed, rel=1e-4)


def test_psi_bounds_and_cocycle(cir_model):
    grid = make_grid(1.0, 256)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL), range(4),
                               Workspace())
    rng = np.random.default_rng(0)
    for _ in range(50):
        pth = int(rng.integers(0, 4))
        h, s, t = sorted(rng.integers(0, 257, size=3))
        lp = log_phi(batch.states[:, pth], grid, cir_model.params)
        lhs = psi_pair(lp, h, t)
        rhs = psi_pair(lp, h, s) * psi_pair(lp, s, t)
        assert abs(lhs - rhs) < 1e-12
        assert psi_pair(lp, t, t) == 1.0
        assert 0.0 < lhs <= 1.0


def test_psi_matrix_agrees_with_psi_pair(cir_model):
    grid = make_grid(1.0, 64)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL), range(1),
                               Workspace())
    lp = log_phi(batch.states[:, 0], grid, cir_model.params)
    mat = psi_matrix(lp)
    rng = np.random.default_rng(1)
    for _ in range(50):
        h, t = sorted(rng.integers(0, 65, size=2))
        assert abs(mat[h, t] - psi_pair(lp, h, t)) < 1e-12


def test_i_scaling_is_exactly_quadratic(cir_model):
    # multiplying the integrand factor g = sqrt(Z) phi by a constant a
    # multiplies the paper's I by a^2 exactly; realized by scaling Z with psi frozen
    grid = make_grid(1.0, 32)
    batch = simulate_cir_paths(cir_model, grid, NoiseStream(SEED, PURPOSE_VOL), range(1),
                               Workspace())
    lp = log_phi(batch.states[:, 0], grid, cir_model.params)
    base = i_triple_sum(batch.states[:, 0], lp, grid)
    scaled = i_triple_sum(4.0 * batch.states[:, 0], lp, grid)
    assert scaled == pytest.approx(4.0 * base, rel=1e-14)


# the weight of the scheme: its step derivatives and the O(n) sweeps


@pytest.mark.parametrize("fast_decay", [False, True], ids=["demo", "fast_decay"])
def test_kernel_and_weight_match_brute_force(cir_model, fast_cir, fast_decay):
    """cir_kernel's step derivatives against their closed forms, and the
    sweeps' sums against the dense gradient and Hessian of F_n."""
    model = fast_cir if fast_decay else cir_model
    grid = make_grid(model.params.T, 64)
    ws = Workspace()
    batch = simulate_cir_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(5), ws)
    k, dt, z, dW = model.params.k, grid.dt, batch.states[:-1], batch.dW
    expected = (1.0 - dt + k * dW / (2.0 * np.sqrt(z)), k * np.sqrt(z * dt),
                -k * dW / (4.0 * z**1.5), k * math.sqrt(dt) / (2.0 * np.sqrt(z)))
    n = grid.n_steps
    for got, want in zip(cir_kernel(batch, model.params, Workspace(), 0, n), expected):
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    wb = skorokhod_weight_cir(batch, model.params, ws)
    assert np.all(wb.denominator > 0) and np.all(np.isfinite(wb.delta))
    for p in range(5):
        ref = dense_weight(model, grid, batch.states[:, p], batch.dW[:, p])
        got = (wb.g_xi[p], wb.trace_h[p], wb.hessian_gg[p], wb.denominator[p], wb.delta[p])
        for a, b in zip(got, ref):
            assert abs(a - b) / abs(b) < 1e-8


def whole_array_kernel(batch, params):
    """The step derivatives as whole (n, P) arrays, by the operations, in
    the order, that the tiled kernel must reproduce bit for bit."""
    z, dW, dt, k = batch.states[:-1], batch.dW, batch.grid.dt, params.k
    phi_xi = np.sqrt(z)
    r = np.divide(0.5 * k, phi_xi)
    phi_z = r * dW
    phi_zz = phi_z / z
    phi_zz *= -0.5
    phi_z += 1.0 - dt
    r *= np.sqrt(dt)
    phi_xi *= k * np.sqrt(dt)
    return phi_z, phi_xi, phi_zz, r


def whole_array_sweeps(grid, phi_y, phi_xi, phi_yy, phi_yxi, dW):
    """The backward and forward sweeps over whole step-derivative arrays,
    one node row at a time: (delta, |g|^2, g . xi, tr H, g^T H g)."""
    c = grid.trapezoid_weights / grid.T
    n, P = dW.shape
    lam = np.empty((n + 1, P))
    lam[:] = c[:, None]
    for j in range(n - 1, 0, -1):
        lam[j] += lam[j + 1] * phi_y[j]
    g = lam[1:]
    g *= phi_xi
    g_xi = node_sum(dW, g) / np.sqrt(grid.dt)
    g_sq = node_sum(g, g)
    phi_yxi *= g
    phi_yxi *= 2.0
    g *= phi_xi
    phi_xi *= phi_xi
    x = np.zeros((4, P))  # V, U, S, D
    h = np.empty((2, P))
    acc = np.zeros((2, P))
    for j in range(n):
        np.multiply(x[0::2], phi_yy[j], out=h)
        h[0] += phi_yxi[j]
        h[0] *= x[0]
        x *= phi_y[j]
        x[2] *= phi_y[j]
        x[0] += g[j]
        x[2] += phi_xi[j]
        x[1::2] += h
        if j < n - 1:
            acc += x[1::2]
    acc += 0.5 * x[1::2]
    acc *= c[1]
    delta = (g_xi - acc[1]) / g_sq + 2.0 * acc[0] / g_sq**2
    return delta, g_sq, g_xi, acc[1], acc[0]


@pytest.mark.parametrize("fast_decay", [False, True], ids=["demo", "fast_decay"])
@pytest.mark.parametrize("n", [2, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 64, 512])
def test_tiled_weight_matches_the_whole_array_sweeps(cir_model, fast_cir, fast_decay, n):
    """The sweeps take the step derivatives one tile of step rows at a time.
    The kernel's tiles, and the weight and its four sums, equal bit for bit
    the whole-array kernel and sweeps, on grids of one partial tile, one
    tile and tiles that end inside and at n."""
    model = fast_cir if fast_decay else cir_model
    grid = make_grid(model.params.T, n)
    ws = Workspace()
    batch = simulate_cir_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(300), ws)
    steps = whole_array_kernel(batch, model.params)
    for lo in range(0, n, TILE_ROWS):
        hi = min(lo + TILE_ROWS, n)
        tile = cir_kernel(batch, model.params, Workspace(), lo, hi)
        for got, want in zip(tile, steps):
            assert got.tobytes() == want[lo:hi].tobytes()
    want = whole_array_sweeps(grid, *steps, batch.dW)
    wb = skorokhod_weight_cir(batch, model.params, ws)
    got = (wb.delta, wb.denominator, wb.g_xi, wb.trace_h, wb.hessian_gg)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_positive_i_on_simulated_paths(cir_model):
    """The denominator |grad F_n|^2 is positive and finite on every path."""
    grid = make_grid(1.0, 256)
    stream, ws = NoiseStream(SEED, PURPOSE_VOL), Workspace()
    for lo in range(0, 10000, 2048):
        idx = range(lo, min(lo + 2048, 10000))
        batch = simulate_cir_paths(cir_model, grid, stream, idx, ws)
        den = skorokhod_weight_cir(batch, cir_model.params, ws).denominator
        assert np.all(den > 0) and np.all(np.isfinite(den))


def test_weight_matches_discrete_divergence(cir_model, fast_cir):
    """delta is the divergence of grad F_n / |grad F_n|^2 over the step
    normals, to roundoff, on both models."""
    for model in (cir_model, fast_cir):
        grid = make_grid(model.params.T, 64)
        ws = Workspace()
        batch = simulate_cir_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(2), ws)
        wb = skorokhod_weight_cir(batch, model.params, ws)
        for p in range(2):
            div = discrete_divergence(model, grid, batch.states[:, p], batch.dW[:, p])
            assert wb.delta[p] == pytest.approx(div, rel=1e-8)


def test_duality_small_ensemble(cir_model):
    grid = make_grid(1.0, 256)
    stream, ws = NoiseStream(SEED, PURPOSE_VOL), Workspace()
    f = np.empty(8000)
    d = np.empty(8000)
    for lo in range(0, 8000, 2048):
        idx = range(lo, min(lo + 2048, 8000))
        b = simulate_cir_paths(cir_model, grid, stream, idx, ws)
        wb = skorokhod_weight_cir(b, cir_model.params, ws)
        assert np.all(wb.denominator > 0) and np.all(np.isfinite(wb.delta))
        f[idx] = b.avg_variance
        d[idx] = wb.delta
    # E[sigma_tilde^2] = b + (z0 - b)(1 - e^{-T})/T = 1 exactly here
    for stat in (d, f * d - 1.0, f * f * d - 2.0 * f):
        z = abs(stat.mean()) / (stat.std(ddof=1) / math.sqrt(stat.size))
        assert z < 3.89
    mean_f = f.mean()
    assert mean_f == pytest.approx(1.0, abs=3.89 * f.std(ddof=1) / math.sqrt(f.size))


def test_kernel_survives_extreme_log_phi_range():
    """Tiny z0 over a long horizon drives q*R into the hundreds, where the
    paper's exp(-2 log phi) would overflow float64 by hundreds of orders of
    magnitude; the scheme's step derivatives stay finite, and the sweeps
    keep agreeing with the dense oracle."""
    params = CIRParams(b=1.0, k=0.25, z0=1e-5, s0=100.0, r=0.05, T=30.0)
    model = validate_cir(params)
    grid = make_grid(30.0, 64)
    ws = Workspace()
    batch = simulate_cir_paths(model, grid, NoiseStream(1, PURPOSE_VOL), range(2), ws)
    assert not batch.bad.any()
    assert -2.0 * min(log_phi(batch.states[:, p], grid, params).min() for p in range(2)) > 709
    wb = skorokhod_weight_cir(batch, params, ws)
    assert np.all(wb.denominator > 0) and np.all(np.isfinite(wb.delta))
    for p in range(2):
        ref = dense_weight(model, grid, batch.states[:, p], batch.dW[:, p])
        assert abs(wb.denominator[p] - ref[3]) / ref[3] < 1e-8
        assert abs(wb.delta[p] - ref[4]) / abs(ref[4]) < 1e-8


def test_weight_stable_under_bridge_refinement(cir_model):
    """delta(n=512) vs delta(n=2048) on matched (bridge-refined) noise."""
    n0 = 512
    stream = NoiseStream(SEED, PURPOSE_VOL)
    n_paths = 200
    dW = stream.normal_matrix(range(n_paths), 0, n0).T * math.sqrt(1.0 / n0)
    coarse = paths_from_increments(simulate_cir_paths, cir_model, make_grid(1.0, n0), dW)
    w_coarse = skorokhod_weight_cir(coarse, cir_model.params, Workspace())

    fine_dW = dW
    n = n0
    for level in range(2):  # 512 -> 2048
        z = NoiseStream(SEED, PURPOSE_BRIDGE + level).normal_matrix(range(n_paths), 0, n).T
        fine_dW = refine_increments(fine_dW, 1.0 / n, z)
        n *= 2
    fine = paths_from_increments(simulate_cir_paths, cir_model, make_grid(1.0, n), fine_dW)
    w_fine = skorokhod_weight_cir(fine, cir_model.params, Workspace())

    gap = np.abs(w_coarse.delta - w_fine.delta)
    spread = w_coarse.delta.std(ddof=1)
    assert gap.mean() < 0.05 * spread
