"""The weight engine of both models against the dense oracle, finite
differences and the paper's continuous-time weight."""

import math

import numpy as np
import pytest

from avgvar import (OUParams, make_grid, simulate_cir_paths, simulate_ou_paths,
                    validate_ou)
from avgvar.reference import gradient_hessian
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_cir import skorokhod_weight_cir
from avgvar.weights_ou import skorokhod_weight_ou
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
                                r=0.05, mu=0.05, T=1.0), ref_vol)


@pytest.mark.parametrize("model_name", ["ou_model", "fast_ou", "cir_model", "fast_cir"])
def test_dense_oracle_matches_pathwise_finite_differences(model_name, request):
    """The oracle's gradient and Hessian of F_n against central differences
    of F_n through simulate_*_paths on given normals, one step normal at a
    time."""
    model = request.getfixturevalue(model_name)
    simulate = simulate_ou_paths if "ou" in model_name else simulate_cir_paths
    grid = make_grid(model.params.T, 8)
    xi_all = NoiseStream(SEED, PURPOSE_VOL).normal_matrix(range(2), 0, grid.n_steps).T

    def f_of(xi):
        return simulate(model, grid, GivenNormals(xi[None]), range(1)).avg_variance[0]

    for xi in xi_all:
        batch = simulate(model, grid, GivenNormals(xi[None]), range(1))
        g, H = gradient_hessian(model, grid, batch.states[:, 0], xi * math.sqrt(grid.dt))
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
            delta = skorokhod_weight_ou(batch, p).delta
            paper = [ito - trace for ito, trace, _ in (
                ou_weight_double_sum(batch.nu[:, i], batch.nu_prime[:, i], dW[i],
                                     grid, p.alpha, p.k) for i in range(n_paths))]
        else:
            batch = paths_from_increments(simulate_cir_paths, model, grid, dW)
            delta = skorokhod_weight_cir(batch, p).delta
            paper = [a - b - c2 + c3 for a, b, c2, c3, _ in (
                cir_weight_triple_sum(batch.states[:, i], batch.dW[:, i], grid, p)
                for i in range(n_paths))]
        rms.append(math.sqrt(np.mean((delta - np.array(paper)) ** 2)))
        if level < 2:
            z = NoiseStream(SEED, PURPOSE_BRIDGE + level).normal_matrix(range(n_paths), 0, n).T
            dW = refine_increments(dW, p.T / n, z)
            n *= 2
    assert rms[1] <= bound * rms[0] and rms[2] <= bound * rms[1], rms
