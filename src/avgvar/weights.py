"""The Skorokhod density weight of both models, from one derivation.

Both path schemes step a scalar state on the normals xi_j of the grid,
Y_{j+1} = Phi(Y_j, xi_j), and the averaged variance is the trapezoid sum
F_n = sum_j c_j f(Y_j) with c_j = w_j / T. The weight is the exact
divergence of u = g / |g|^2 over the normals, with g = grad_xi F_n and
H = grad_xi^2 F_n:

    delta = (g . xi - tr H) / |g|^2 + 2 g^T H g / |g|^4.

Gaussian integration by parts, E[phi'(F_n)] = E[<grad phi(F_n), u>] =
E[phi(F_n) delta], makes E[delta] = 0 and E[F_n delta] = 1 exact at every
n, and p(x) = E[1{F_n > x} delta] the density of F_n itself (Nualart, The
Malliavin Calculus and Related Topics, 1.3). The paper's continuous-time
weight is its limit as dt -> 0.

One backward pass gives the adjoint lambda_n = c_n f'_n,
lambda_j = c_j f'_j + Phi_y lambda_{j+1}, and g_j = Phi_xi lambda_{j+1}.
One forward pass carries the tangent V along g, its second-order tangent
U, S_j = sum_l (dY_j / dxi_l)^2 and D_j = sum_l d^2 Y_j / dxi_l^2:

    V_{j+1} = Phi_y V_j + Phi_xi g_j
    U_{j+1} = Phi_y U_j + Phi_yy V_j^2 + 2 Phi_yxi V_j g_j
    S_{j+1} = Phi_y^2 S_j + Phi_xi^2
    D_{j+1} = Phi_y D_j + Phi_yy S_j

(Phi_xixi = 0 for both schemes), and then g^T H g = sum_j c_j (f''_j V_j^2
+ f'_j U_j) and tr H = sum_j c_j (f''_j S_j + f'_j D_j). A model supplies
only its step derivatives and f', f''. A linear scheme (OU) has constant
Phi_y, Phi_xi and Phi_yy = Phi_yxi = 0, so U = D = 0 and S is one
deterministic vector; a nonlinear one (CIR) has f(y) = y, so f' = 1 and
f'' = 0. Every recursion has factors Phi_y, so nothing grows like
e^{+alpha t}.

Every array is time-major (``avgvar.paths``) and every per-path sum is
``paths.node_sum``. Nothing here decides a failure: a path with |g|^2 = 0
gets whatever the division gives, and ``run_ensemble`` alone flags it.
"""

from dataclasses import dataclass

import numpy as np

from .paths import node_sum
from .workspace import take


@dataclass
class WeightBatch:
    """Per-path weights and the four sums they are made of;
    delta = (g_xi - trace_h) / denominator + 2 hessian_gg / denominator^2."""

    delta: np.ndarray        # (P,)
    denominator: np.ndarray  # (P,) |g|^2
    g_xi: np.ndarray         # (P,) g . xi
    trace_h: np.ndarray      # (P,) tr H
    hessian_gg: np.ndarray   # (P,) g^T H g


def _divergence(g_xi, trace_h, hessian_gg, g_sq):
    delta = (g_xi - trace_h) / g_sq + 2.0 * hessian_gg / g_sq**2
    return WeightBatch(delta=delta, denominator=g_sq, g_xi=g_xi, trace_h=trace_h,
                       hessian_gg=hessian_gg)


def _gradient(lam, phi_y, phi_xi, dW, dt):
    """The backward pass, in place: ``lam`` holds c_j f'_j on entry and
    g_{j-1} in its rows 1..n on exit (row 0 is spent). Returns g . xi and
    |g|^2, with xi = dW / sqrt(dt)."""
    scalar = np.ndim(phi_y) == 0
    for j in range(len(lam) - 2, 0, -1):
        lam[j] += lam[j + 1] * (phi_y if scalar else phi_y[j])
    g = lam[1:]
    g *= phi_xi
    return node_sum(dW, g) / np.sqrt(dt), node_sum(g, g)


def linear_weight(grid, fp, fpp, phi_y, phi_xi, dW, df=1.0, ws=None):
    """The weight of a linear scheme with constant Phi_y and Phi_xi, where
    f' = df * fp and f'' = df * fpp at the nodes. With a workspace ``ws``
    the batch's fp is spent: the adjoint, the gradient and then V / Phi_xi
    run in place over it. Without one, fp is left as it is."""
    c = df * grid.trapezoid_weights / grid.T
    lam = np.multiply(fp, c[:, None], out=None if ws is None else fp)
    g_xi, g_sq = _gradient(lam, phi_y, phi_xi, dW, grid.dt)
    lam[0] = 0.0
    for j in range(1, len(lam)):
        lam[j] += lam[j - 1] * phi_y
    lam *= lam
    lam *= c[:, None]
    s = np.zeros_like(c)
    for j in range(1, len(s)):
        s[j] = phi_y * phi_y * s[j - 1] + phi_xi * phi_xi
    return _divergence(g_xi, node_sum(fpp, c * s), phi_xi**2 * node_sum(lam, fpp), g_sq)


def sweep_weight(grid, phi_y, phi_xi, phi_yy, phi_yxi, dW, ws=None):
    """The weight of a nonlinear scheme with f(y) = y from its (n, P) step
    derivatives, which it spends: 2 Phi_yxi g, Phi_xi g and Phi_xi^2
    overwrite Phi_yxi, g and Phi_xi. The gradient runs in slot ``lam`` of
    a workspace ``ws``."""
    c = grid.trapezoid_weights / grid.T
    n, P = dW.shape
    lam = take(ws, "lam", (n + 1, P))
    lam[:] = c[:, None]
    g_xi, g_sq = _gradient(lam, phi_y, phi_xi, dW, grid.dt)
    g = lam[1:]
    phi_yxi *= g
    phi_yxi *= 2.0
    g *= phi_xi
    phi_xi *= phi_xi

    x = np.zeros((4, P))  # V, U, S, D at the current node
    h = np.empty((2, P))
    acc = np.zeros((2, P))  # sum_j U_j and sum_j D_j over interior nodes
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
    return _divergence(g_xi, acc[1], acc[0], g_sq)
