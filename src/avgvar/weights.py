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

A nonlinear scheme's step derivatives are (n, P) like the paths, and are
never whole arrays: ``sweep_weight`` asks the model's kernel for them one
tile of ``paths.TILE_ROWS`` step rows at a time, into tile-sized slots,
in descending tiles for the backward pass and again in ascending tiles
for the forward one. Computing them twice, in cache, costs about what
writing them out once and reading them back row by row did, and a chunk
touches four fewer whole arrays.

Every array is time-major (``avgvar.paths``) and every per-path sum is
``paths.node_sum``. Nothing here decides a failure: a path with |g|^2 = 0
gets whatever the division gives, and ``run_ensemble`` alone flags it.
"""

from dataclasses import dataclass

import numpy as np

from .paths import TILE_ROWS, node_sum
from .workspace import take, tiles


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


def linear_weight(grid, fp, fpp, phi_y, phi_xi, dW, df=1.0, ws=None):
    """The weight of a linear scheme with constant Phi_y and Phi_xi, where
    f' = df * fp and f'' = df * fpp at the nodes. With a workspace ``ws``
    the batch's fp is spent: the adjoint, the gradient and then V / Phi_xi
    run in place over it. Without one, fp is left as it is."""
    c = df * grid.trapezoid_weights / grid.T
    lam = np.multiply(fp, c[:, None], out=None if ws is None else fp)
    for j in range(len(lam) - 2, 0, -1):
        lam[j] += lam[j + 1] * phi_y
    g = lam[1:]  # g_{j-1} in row j; row 0 is spent
    g *= phi_xi
    g_xi = node_sum(dW, g) / np.sqrt(grid.dt)
    g_sq = node_sum(g, g)
    lam[0] = 0.0
    for j in range(1, len(lam)):
        lam[j] += lam[j - 1] * phi_y
    lam *= lam
    lam *= c[:, None]
    s = np.zeros_like(c)
    for j in range(1, len(s)):
        s[j] = phi_y * phi_y * s[j - 1] + phi_xi * phi_xi
    return _divergence(g_xi, node_sum(fpp, c * s), phi_xi**2 * node_sum(lam, fpp), g_sq)


def sweep_weight(grid, kernel, dW, ws=None):
    """The weight of a nonlinear scheme with f(y) = y. ``kernel(lo, hi, tw)``
    returns the step derivatives (Phi_y, Phi_xi, Phi_yy, Phi_yxi) of step
    rows lo..hi-1 as (hi - lo, P) arrays, which it may take from the
    tile-sized workspace ``tw`` and which the sweeps spend. The backward
    pass runs over tiles from the last, and leaves g_j = Phi_xi lambda_{j+1}
    in rows 1..n of slot ``lam`` of a workspace ``ws``; the forward pass
    runs over tiles from the first, and first overwrites each tile's
    Phi_yxi, g and Phi_xi with 2 Phi_yxi g, Phi_xi g and Phi_xi^2."""
    c = grid.trapezoid_weights / grid.T
    n, P = dW.shape
    tw = tiles(ws, TILE_ROWS * P)
    starts = range(0, n, TILE_ROWS)
    lam = take(ws, "lam", (n + 1, P))
    lam[:] = c[:, None]
    for lo in reversed(starts):
        hi = min(lo + TILE_ROWS, n)
        phi_y, phi_xi = kernel(lo, hi, tw)[:2]
        for j in range(hi - 1, max(lo, 1) - 1, -1):
            lam[j] += lam[j + 1] * phi_y[j - lo]
        lam[lo + 1:hi + 1] *= phi_xi  # rows this tile's loop has read
    g = lam[1:]
    g_xi = node_sum(dW, g) / np.sqrt(grid.dt)
    g_sq = node_sum(g, g)

    x = np.zeros((4, P))  # V, U, S, D at the current node
    h = np.empty((2, P))
    acc = np.zeros((2, P))  # sum_j U_j and sum_j D_j over interior nodes
    for lo in starts:
        hi = min(lo + TILE_ROWS, n)
        phi_y, phi_xi, phi_yy, phi_yxi = kernel(lo, hi, tw)
        g_tile = g[lo:hi]
        phi_yxi *= g_tile
        phi_yxi *= 2.0
        g_tile *= phi_xi
        phi_xi *= phi_xi
        for i in range(hi - lo):
            np.multiply(x[0::2], phi_yy[i], out=h)
            h[0] += phi_yxi[i]
            h[0] *= x[0]
            x *= phi_y[i]
            x[2] *= phi_y[i]
            x[0] += g_tile[i]
            x[2] += phi_xi[i]
            x[1::2] += h
            if lo + i < n - 1:
                acc += x[1::2]
    acc += 0.5 * x[1::2]
    acc *= c[1]
    return _divergence(g_xi, acc[1], acc[0], g_sq)
