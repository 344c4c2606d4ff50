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

Each model's weight runs these passes itself: the linear case in
``weights_ou.skorokhod_weight_ou``, the nonlinear one in
``weights_cir.skorokhod_weight_cir``. A nonlinear scheme's step
derivatives are (n, P) like the paths, and are never whole arrays: the
CIR weight asks ``weights_cir.cir_kernel`` for them one tile of
``paths.TILE_ROWS`` step rows at a time, into tile-sized slots, in
descending tiles for the backward pass and again in ascending tiles for
the forward one. A tile is computed twice, in cache, because its four
step derivatives held whole would be four more whole arrays per chunk,
and reading them back row by row would cost about what recomputing them
does.

Every array is time-major (``avgvar.paths``) and every per-path sum is
``paths.node_sum``. Nothing here decides a failure: a path with |g|^2 = 0
gets whatever the division gives, and ``run_ensemble`` alone flags it.
"""

from dataclasses import dataclass

import numpy as np


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
