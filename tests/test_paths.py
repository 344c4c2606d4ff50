import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from avgvar import (FailureBudgetExceeded, InvalidGrid, OUParams, ValidatedOUModel,
                    CIRParams, ValidatedCIRModel, make_grid, run_ensemble,
                    sample_terminal_asset, simulate_cir_paths, simulate_ou_paths)
from avgvar.paths import TILE_ROWS, Z_FLOOR, node_sum
from avgvar.reference import ou_path
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.workspace import Workspace
from bridge import PURPOSE_BRIDGE, GivenNormals, paths_from_increments, refine_increments
from test_ensemble import _flat_above_ten_model
from test_models import oracle_family

SEED = 20240601


def ito_prefix_sums(dW, integrand_nodes):
    """Left-point Ito prefix sums P_j = sum_{i<j} f(t_i) dW_i, with P_0 = 0.

    ``integrand_nodes`` must supply f at all n+1 grid nodes (the terminal
    value is unused, matching the left-point rule); shapes broadcast across
    a batch of paths.
    """
    dW = np.atleast_2d(np.asarray(dW, dtype=float))
    f = np.atleast_2d(np.asarray(integrand_nodes, dtype=float))
    if f.shape[-1] != dW.shape[-1] + 1:
        raise ValueError(
            f"integrand must have one value per node: got {f.shape[-1]} "
            f"for {dW.shape[-1]} steps")
    out = np.zeros((max(dW.shape[0], f.shape[0]), dW.shape[-1] + 1))
    np.cumsum(f[:, :-1] * dW, axis=1, out=out[:, 1:])
    return out


def test_make_grid_nodes():
    g = make_grid(1.0, 4)
    assert np.allclose(g.t, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert make_grid(2.0, 2).dt == 1.0


def test_make_grid_rejects_small():
    with pytest.raises(InvalidGrid):
        make_grid(1.0, 1)
    with pytest.raises(InvalidGrid):
        make_grid(0.0, 8)


def test_noiseless_ou_is_exact_decay(ref_vol):
    # k = 0 bypasses validation on purpose: the recursion must reduce to
    # the deterministic exponential decay exactly
    params = OUParams(alpha=1.3, k=0.0, y0=2.0, s0=100.0, r=0.05, T=1.0)
    model = ValidatedOUModel(params=params, vol=ref_vol)
    grid = make_grid(1.0, 32)
    batch = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(1),
                              Workspace())
    decay = 2.0 * np.exp(-1.3 * grid.t)
    assert np.allclose(batch.states[:, 0], decay[-1:], rtol=1e-14)
    sig = ref_vol.evaluate(decay[:, None], Workspace())[0]
    assert np.allclose(batch.avg_variance, node_sum(sig * sig, grid.trapezoid_weights) / grid.T,
                       rtol=1e-14)


def test_ou_terminal_moments(ou_model):
    grid = make_grid(1.0, 64)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    batch = simulate_ou_paths(ou_model, grid, stream, range(40000), Workspace())
    y_t = batch.states[-1]
    p = ou_model.params
    mean_target = p.y0 * math.exp(-p.alpha * p.T)
    var_target = p.k**2 / (2 * p.alpha) * (1 - math.exp(-2 * p.alpha * p.T))
    assert abs(y_t.mean() - mean_target) < 3 * y_t.std() / math.sqrt(y_t.size)
    sq = (y_t - y_t.mean()) ** 2
    assert abs(y_t.var() - var_target) < 3 * sq.std() / math.sqrt(y_t.size)


def test_ou_distribution_invariant_to_grid(ou_model):
    # exact transition: Y_T law cannot depend on n_steps (KS at 1%)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    coarse = simulate_ou_paths(ou_model, make_grid(1.0, 16), stream, range(20000),
                               Workspace())
    fine = simulate_ou_paths(ou_model, make_grid(1.0, 512), stream,
                             range(20000, 40000), Workspace())
    stat = ks_2samp(coarse.states[-1], fine.states[-1])
    assert stat.pvalue > 0.01


def test_noiseless_cir_matches_ode(cir_model, ref_vol):
    params = CIRParams(b=1.0, k=0.0, z0=3.0, s0=100.0, r=0.05, T=1.0)
    model = ValidatedCIRModel(params=params)
    grid = make_grid(1.0, 4096)
    batch = simulate_cir_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(1),
                               Workspace())
    exact = 1.0 + (3.0 - 1.0) * np.exp(-grid.t)
    assert np.max(np.abs(batch.states[:, 0] - exact) / exact) < 1e-3


def test_cir_terminal_moments(cir_model):
    grid = make_grid(1.0, 256)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    batch = simulate_cir_paths(cir_model, grid, stream, range(40000), Workspace())
    z_t = batch.states[-1]
    c = cir_model.params
    mean_target = c.z0 * math.exp(-c.T) + c.b * (1 - math.exp(-c.T))
    var_target = (c.z0 * c.k**2 * (math.exp(-c.T) - math.exp(-2 * c.T))
                  + 0.5 * c.b * c.k**2 * (1 - math.exp(-c.T)) ** 2)
    assert abs(z_t.mean() - mean_target) < 3 * z_t.std() / math.sqrt(z_t.size)
    sq = (z_t - z_t.mean()) ** 2
    assert abs(z_t.var() - var_target) < 3 * sq.std() / math.sqrt(z_t.size)


def test_cir_never_floors_in_reference_regime(cir_model):
    grid = make_grid(1.0, 512)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    batch = simulate_cir_paths(cir_model, grid, stream, range(10000), Workspace())
    assert np.all(batch.states > Z_FLOOR)
    assert not batch.bad.any()


def test_floor_saturation_raises_on_coarse_grid():
    """Aggressive vol-of-vol on a coarse grid slams into the floor. The
    batch flags ``bad`` exactly the paths on which the Euler recursion,
    replayed here from the batch's dW, takes a step below Z_FLOOR, and
    the ensemble fails those paths, beyond its 0.1% budget."""
    params = CIRParams(b=0.05, k=0.3, z0=0.01, s0=100.0, r=0.05, T=1.0)
    model = ValidatedCIRModel(params=params)
    grid = make_grid(1.0, 16)
    batch = simulate_cir_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL),
                               range(64), Workspace())
    z = np.full(64, params.z0)
    floored = np.zeros(64, dtype=bool)
    for dw in batch.dW:
        step = z + (params.b - z) * grid.dt + params.k * np.sqrt(z) * dw
        floored |= step < Z_FLOOR
        z = np.where(step < Z_FLOOR, Z_FLOOR, step)
    assert 0 < floored.sum() < 64 and np.array_equal(batch.bad, floored)
    with pytest.raises(FailureBudgetExceeded,
                       match=rf"^{floored.sum()} of 64 paths failed"):
        run_ensemble(model, grid, 64, SEED)


def test_ou_avg_variance_above_lower_bound(ou_model):
    grid = make_grid(1.0, 64)
    batch = simulate_ou_paths(ou_model, grid, NoiseStream(SEED, PURPOSE_VOL),
                              range(500), Workspace())
    assert np.all(batch.avg_variance >= ou_model.vol.lower_bound_c**2)


@pytest.mark.parametrize("model_name", ["ou_model", "cir_model"])
def test_avg_variance_matches_exactly_rounded_sum(model_name, request):
    """F is the trapezoid sum of sigma^2(Y) (OU) or Z (CIR), whatever the
    order of summation: each path agrees with math.fsum of its terms."""
    model = request.getfixturevalue(model_name)
    grid = make_grid(1.0, 512)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    if model_name == "ou_model":
        batch = simulate_ou_paths(model, grid, stream, range(512), Workspace())
        y, _ = ou_path(model.params, grid, stream.normal_matrix(range(512), 0, 512))
        integrand = model.vol.evaluate(y, Workspace())[0] ** 2
    else:
        batch = simulate_cir_paths(model, grid, stream, range(512), Workspace())
        integrand = batch.states
    w = grid.trapezoid_weights
    exact = np.array([math.fsum(w * row) for row in integrand.T]) / grid.T
    assert np.max(np.abs(batch.avg_variance - exact) / exact) <= 1e-14


@pytest.mark.parametrize("vol", ["reference", "flat_above_ten"])
@pytest.mark.parametrize("width", [1, 3, 2048 + 300])
@pytest.mark.parametrize("n", [2, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 512])
def test_tiled_ou_pass_matches_the_whole_array_formulas(ou_model, vol, width, n):
    """The OU pass draws, steps, evaluates, sums and guards one tile of
    node rows at a time. Its F, guard, nu, nu' and g . xi equal, bit for
    bit, the whole-array formulas on the path that ``reference.ou_path``
    rebuilds from the stream's normals: the one-formula-each volatility
    functions, ``node_sum`` and the guard over all nodes at once, on grids
    that end inside, at and just past a tile; its kept states row is that
    path's last row. The
    flat-above-ten function (sigma' = 0 above 10) fails paths at k = 4."""
    if vol == "reference":
        model, formulas = ou_model, oracle_family(0.1, 0.1)
    else:
        model = _flat_above_ten_model(9.0, k=4.0)
        formulas = (model.vol.sigma, model.vol.sigma_prime, model.vol.sigma_second)
    grid = make_grid(1.0, n)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    idx = range(width)
    batch = simulate_ou_paths(model, grid, stream, idx, Workspace())

    y, d = ou_path(model.params, grid, stream.normal_matrix(idx, 0, n))
    sig, sig_p, sig_pp = (f(y) for f in formulas)
    avg_variance = node_sum(sig * sig, grid.trapezoid_weights) / grid.T
    ok = (sig_p > 0).all(axis=0) & (sig >= model.vol.lower_bound_c * (1.0 - 1e-12)).all(axis=0)
    if vol == "flat_above_ten" and width > 3:
        assert 0 < (~ok).sum() < width
    assert batch.states.shape == (1, width)
    assert batch.states.tobytes() == y[-1:].tobytes()
    assert batch.avg_variance.tobytes() == avg_variance.tobytes()
    assert np.array_equal(batch.bad, ~ok)
    nu = sig * sig_p
    assert batch.nu.tobytes() == nu.tobytes()
    assert batch.nu_prime.tobytes() == (sig_p**2 + sig * sig_pp).tobytes()
    nu_noise = node_sum(d * nu, grid.trapezoid_weights)
    assert batch.nu_noise.tobytes() == nu_noise.tobytes()


def test_ito_prefix_zero_and_brownian():
    grid = make_grid(1.0, 128)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    dW = stream.normal_matrix(range(4), 0, 128).T * np.sqrt(grid.dt)
    zeros = ito_prefix_sums(dW, np.zeros((1, 129)))
    assert np.all(zeros == 0.0)
    ones = ito_prefix_sums(dW, np.ones((1, 129)))
    assert np.allclose(ones[:, 1:], np.cumsum(dW, axis=1), rtol=1e-15)


def test_ito_prefix_linearity_exact():
    # with integer-valued inputs every product and sum is exact in float64
    rng = np.random.default_rng(3)
    dW = rng.integers(-3, 4, size=(2, 64)).astype(float)
    f = rng.integers(-5, 6, size=(2, 65)).astype(float)
    g = rng.integers(-5, 6, size=(2, 65)).astype(float)
    a = 2.0
    left = ito_prefix_sums(dW, a * f + g)
    right = a * ito_prefix_sums(dW, f) + ito_prefix_sums(dW, g)
    assert np.array_equal(left, right)


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(-8, 8), seed=st.integers(0, 2**20))
def test_ito_prefix_linearity_float(scale, seed):
    rng = np.random.default_rng(seed)
    dW = rng.normal(size=(1, 32))
    f = rng.normal(size=(1, 33))
    g = rng.normal(size=(1, 33))
    left = ito_prefix_sums(dW, scale * f + g)
    right = scale * ito_prefix_sums(dW, f) + ito_prefix_sums(dW, g)
    assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


def test_ito_isometry_exponential_integrand():
    # f(h) = e^h on [0,1]: Var of the terminal sum is (e^2 - 1)/2
    grid = make_grid(1.0, 256)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    n_paths = 100000
    target = (math.e**2 - 1) / 2
    f = np.exp(grid.t)[None, :]
    totals = np.empty(n_paths)
    for lo in range(0, n_paths, 8192):
        idx = range(lo, min(lo + 8192, n_paths))
        dW = stream.normal_matrix(idx, 0, 256).T * np.sqrt(grid.dt)
        totals[idx.start:idx.stop] = ito_prefix_sums(dW, f)[:, -1]
    assert abs(totals.mean()) < 3 * totals.std() / math.sqrt(n_paths)
    sq = totals**2
    assert abs(sq.mean() - target) < 3 * sq.std() / math.sqrt(n_paths)


@pytest.mark.parametrize("simulate, model_name", [(simulate_ou_paths, "ou_model"),
                                                  (simulate_cir_paths, "cir_model")],
                         ids=["ou", "cir"])
def test_given_normals_build_the_streams_batch(simulate, model_name, request):
    """A batch built on GivenNormals of a stream's own normals is the
    stream's batch, byte for byte, on 300 paths (past one 256-path noise
    block) and n = 17 (a partial tile). An OU batch keeps the last row of
    the path that ``reference.ou_path`` rebuilds from the normals."""
    model = request.getfixturevalue(model_name)
    grid = make_grid(model.params.T, 17)
    idx = range(300)
    stream = NoiseStream(SEED, PURPOSE_VOL)
    want = simulate(model, grid, stream, idx, Workspace())
    xi = stream.normal_matrix(idx, 0, 17)
    got = simulate(model, grid, GivenNormals(xi.T), idx, Workspace())
    if simulate is simulate_ou_paths:
        assert want.states.tobytes() == ou_path(model.params, grid, xi)[0][-1:].tobytes()
    for name in ("states", "dW", "avg_variance", "nu", "nu_prime", "nu_noise", "bad"):
        a, b = getattr(got, name, None), getattr(want, name, None)
        assert (a is None) == (b is None), name
        assert a is None or a.tobytes() == b.tobytes(), name


def test_terminal_asset_degenerate_cases(ou_model):
    p = ou_model.params
    zero = GivenNormals(np.zeros((1, 1)))
    s_t = sample_terminal_asset(np.array([0.0]), p, zero, range(1))
    assert s_t[0] == pytest.approx(p.s0 * math.exp(p.r * p.T), rel=1e-15)
    s_t = sample_terminal_asset(np.array([0.04]), p, zero, range(1))
    assert s_t[0] == pytest.approx(p.s0 * math.exp(p.r * p.T - 0.5 * 0.04 * p.T),
                                   rel=1e-15)


def test_terminal_asset_martingale(ou_model):
    grid = make_grid(1.0, 64)
    p = ou_model.params
    vol_stream = NoiseStream(SEED, PURPOSE_VOL)
    asset_stream = NoiseStream(SEED, 1)
    batch = simulate_ou_paths(ou_model, grid, vol_stream, range(40000), Workspace())
    s_t = sample_terminal_asset(batch.avg_variance, p, asset_stream,
                                range(40000))
    disc = math.exp(-p.r * p.T) * s_t
    assert abs(disc.mean() - p.s0) < 3 * disc.std() / math.sqrt(disc.size)


def test_avg_variance_converges_under_bridge_refinement(ou_model):
    """|sigma_bar^2(n=512) - sigma_bar^2(n=4096)| small on matched noise."""
    n0 = 512
    stream = NoiseStream(SEED, PURPOSE_VOL)
    dW = stream.normal_matrix(range(100), 0, n0).T * np.sqrt(1.0 / n0)
    coarse = paths_from_increments(simulate_ou_paths, ou_model, make_grid(1.0, n0), dW)
    fine_dW = dW
    n = n0
    for level in range(3):  # 512 -> 4096
        z = NoiseStream(SEED, PURPOSE_BRIDGE + level).normal_matrix(range(100), 0, n).T
        fine_dW = refine_increments(fine_dW, 1.0 / n, z)
        n *= 2
    fine = paths_from_increments(simulate_ou_paths, ou_model, make_grid(1.0, n), fine_dW)
    gap = np.abs(coarse.avg_variance - fine.avg_variance)
    assert gap.mean() < 5e-3
