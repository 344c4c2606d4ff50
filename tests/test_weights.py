"""The weights of both models against the dense oracle, finite
differences and the paper's continuous-time weight."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from avgvar import (CIRParams, OUParams, make_grid, reference_vol_family, simulate_cir_paths,
                    simulate_ou_paths, validate_cir, validate_ou)
from avgvar.ensemble import drivers
from avgvar.reference import dense_weight, gradient_hessian, ou_path
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_cir import skorokhod_weight_cir
from avgvar.weights_ou import skorokhod_weight_ou
from avgvar.workspace import Workspace
from bridge import PURPOSE_BRIDGE, GivenNormals, paths_from_increments, refine_increments
from paper_weight import cir_weight_triple_sum, ou_weight_double_sum

SEED = 20240601


def discrete_divergence(model, grid, states, dW):
    """sum_l (u_l xi_l - du_l / dxi_l) for u = g / |g|^2, with the Jacobian
    of u written out from the dense g and H."""
    g, H = gradient_hessian(model, grid, states, dW)
    g_sq = g @ g
    jac_u = H / g_sq - 2.0 * np.outer(g, H @ g) / g_sq**2
    return (g / g_sq) @ (np.asarray(dW) / np.sqrt(grid.dt)) - np.trace(jac_u)


def central_differences(f, xi, eps=1e-4):
    """(gradient, Hessian) of f at xi by central differences."""
    e = eps * np.eye(xi.size)
    grad = np.array([(f(xi + el) - f(xi - el)) / (2 * eps) for el in e])
    hess = np.array([[(f(xi + el + em) - f(xi + el - em) - f(xi - el + em) + f(xi - el - em))
                      / (4 * eps * eps) for em in e] for el in e])
    return grad, hess


@pytest.fixture
def fast_ou(ref_vol):
    return validate_ou(OUParams(alpha=30.0, k=0.5 * math.sqrt(30.0), y0=0.0, s0=100.0,
                                r=0.05, T=1.0), ref_vol)


@pytest.mark.parametrize("model_name", ["ou_model", "fast_ou", "cir_model", "fast_cir"])
def test_dense_oracle_matches_pathwise_finite_differences(model_name, request):
    """The oracle's gradient and Hessian of F_n against central differences
    of F_n through simulate_*_paths on given normals, one step normal at a
    time."""
    model = request.getfixturevalue(model_name)
    simulate = drivers(model)[0]
    grid = make_grid(model.params.T, 8)
    xi_all = NoiseStream(SEED, PURPOSE_VOL).normal_matrix(range(2), 0, grid.n_steps).T

    ws = Workspace()

    def f_of(xi):
        return simulate(model, grid, GivenNormals(xi[None]), range(1), ws).avg_variance[0]

    for xi in xi_all:
        batch = simulate(model, grid, GivenNormals(xi[None]), range(1), Workspace())
        # an OU batch keeps its last node only: its path is rebuilt from xi
        states = (ou_path(model.params, grid, xi)[0] if simulate is simulate_ou_paths
                  else batch.states[:, 0])
        g, H = gradient_hessian(model, grid, states, xi * math.sqrt(grid.dt))
        g_fd, H_fd = central_differences(f_of, xi)
        assert np.max(np.abs(g - g_fd)) < 1e-8 * np.max(np.abs(g))
        assert np.max(np.abs(H - H_fd)) < 1e-4 * np.max(np.abs(H))


@pytest.mark.parametrize("model_name, bound", [("ou_model", 0.6), ("cir_model", 0.8)])
def test_rms_distance_to_papers_weight_shrinks_with_dt(model_name, bound, request):
    """The paper's continuous-time weight is the dt -> 0 limit of delta: on
    the same Brownian paths, refined by bridges from n = 16 to 32 and 64,
    the RMS distance between the two shrinks by at least the factor
    ``bound`` per halving of dt (about 1/2 for OU; the CIR scheme converges
    at half order, about 0.7)."""
    model = request.getfixturevalue(model_name)
    p = model.params
    n, n_paths = 16, 200
    dW = NoiseStream(SEED, PURPOSE_VOL).normal_matrix(range(n_paths), 0, n).T * math.sqrt(p.T / n)
    rms = []
    for level in range(3):
        grid = make_grid(p.T, n)
        if model_name == "ou_model":
            batch = paths_from_increments(simulate_ou_paths, model, grid, dW)
            # the weight spends batch.nu, so the paper's weight reads it first
            paper = [ito - trace for ito, trace, _ in (
                ou_weight_double_sum(batch.nu[:, i], batch.nu_prime[:, i], dW[i],
                                     grid, p.alpha, p.k) for i in range(n_paths))]
            delta = skorokhod_weight_ou(batch, p, Workspace()).delta
        else:
            batch = paths_from_increments(simulate_cir_paths, model, grid, dW)
            delta = skorokhod_weight_cir(batch, p, Workspace()).delta
            paper = [a - b - c2 + c3 for a, b, c2, c3, _ in (
                cir_weight_triple_sum(batch.states[:, i], batch.dW[:, i], grid, p)
                for i in range(n_paths))]
        rms.append(math.sqrt(np.mean((delta - np.array(paper)) ** 2)))
        if level < 2:
            z = NoiseStream(SEED, PURPOSE_BRIDGE + level).normal_matrix(range(n_paths), 0, n).T
            dW = refine_increments(dW, p.T / n, z)
            n *= 2
    assert rms[1] <= bound * rms[0] and rms[2] <= bound * rms[1], rms


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# OU tuples with alpha 0.01-300, k 0.01-10, y0 within 5 and c and m in
# e^-5..e, CIR tuples with b and z0 0.01-50 and k up to sqrt(b / 6), and
# T 0.05-10. Every such tuple passes validation: on CIR, 6 k^2 < b implies
# the Feller condition k^2 < 2 b.
OU_TUPLES = st.builds(
    lambda alpha, k, y0, c, m, T: validate_ou(
        OUParams(alpha=alpha, k=k, y0=y0, s0=100.0, r=0.05, T=T), reference_vol_family(c, m)),
    alpha=log_uniform(0.01, 300.0), k=log_uniform(0.01, 10.0), y0=st.floats(-5.0, 5.0),
    c=log_uniform(math.exp(-5.0), math.e), m=log_uniform(math.exp(-5.0), math.e),
    T=log_uniform(0.05, 10.0))
CIR_TUPLES = st.builds(
    lambda b, share, z0, T: validate_cir(
        CIRParams(b=b, k=share * math.sqrt(b / 6.0), z0=z0, s0=100.0, r=0.05, T=T)),
    b=log_uniform(0.01, 50.0), share=st.floats(0.01, 0.99), z0=log_uniform(0.01, 50.0),
    T=log_uniform(0.05, 10.0))


@pytest.mark.parametrize("tuples", [OU_TUPLES, CIR_TUPLES], ids=["ou", "cir"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 64), seed=st.integers(0, 2**64 - 1))
def test_weights_match_the_dense_oracle_over_the_validated_domain(tuples, data, n, seed):
    """g . xi, tr H, g^T H g, |g|^2 and delta of the O(n) weight against
    the dense oracle, within the self check's 1e-8 relative bound, on three
    paths of random validated tuples of each model at n = 2-64. CIR paths
    with a floored step have no weight and are skipped. The worst error
    of each example is an event (``--hypothesis-show-statistics``): a few
    1e-12 at most, more than three decades inside the bound."""
    model = data.draw(tuples)
    simulate, weigh = drivers(model)
    grid = make_grid(model.params.T, n)
    stream, idx, ws = NoiseStream(seed, PURPOSE_VOL), range(3), Workspace()
    batch = simulate(model, grid, stream, idx, ws)
    wb = weigh(batch, model.params, ws)
    if simulate is simulate_ou_paths:
        xi = stream.normal_matrix(idx, 0, n)
        states, dW = ou_path(model.params, grid, xi)[0], xi * math.sqrt(grid.dt)
        skip = np.zeros(len(idx), dtype=bool)
    else:
        states, dW, skip = batch.states, batch.dW, batch.bad
    worst = 0.0
    for p in idx:
        if skip[p]:
            continue
        ref = dense_weight(model, grid, states[:, p], dW[:, p])
        got = (wb.g_xi[p], wb.trace_h[p], wb.hessian_gg[p], wb.denominator[p], wb.delta[p])
        worst = max(worst, *(abs(a - b) / abs(b) for a, b in zip(got, ref)))
    event(f"worst rel err <= 1e{math.ceil(math.log10(max(worst, 1e-300)))}")
    assert worst < 1e-8, worst
