"""Dense oracle of the weight: the explicit gradient and Hessian of F_n.

For one path, the recursion of its scheme Y_{j+1} = Phi(Y_j, xi_j) gives
the whole Jacobian J[j, l] = dY_j / dxi_l and second derivative
K[j, l, m] = d^2 Y_j / dxi_l dxi_m:

    J[j+1] = Phi_y J[j] + Phi_xi e_j,
    K[j+1] = Phi_y K[j] + Phi_yy J[j] J[j]^T + Phi_yxi (J[j] e_j^T + e_j J[j]^T),

and then g = grad F_n = sum_j c_j f'_j J[j] and
H = grad^2 F_n = sum_j c_j (f''_j J[j] J[j]^T + f'_j K[j]), with
c_j = w_j / T. The step derivatives and f', f'' are written out here from
the model, apart from the weight modules. The weight's four sums are then
products of g, H and xi. K takes O(n^3) memory: keep n <= 64.

An OU batch keeps only its last node row, so ``ou_path`` rebuilds a whole
OU path from its step normals by the exact transition, for the oracle and
for any check that reads the states at every node.
"""

import numpy as np

from .models import ValidatedOUModel
from .paths import ou_step
from .workspace import Workspace


def ou_path(params, grid, xi):
    """(Y, D): the OU driver at the n+1 nodes and its noise part, on the
    step normals ``xi`` (n rows, time-major, any trailing shape), by the
    exact transition D_0 = 0, D_{j+1} = step_sd xi_j + e^{-alpha dt} D_j,
    Y_j = y0 e^{-alpha t_j} + D_j. decay and step_sd are the simulator's
    (``paths.ou_step``), and each value is formed by the same
    floating-point operations as in its pass, so a rebuilt path equals a
    simulated one bit for bit. The oracle's step derivatives (``_steps``)
    keep their own expm1 form of Phi_xi, apart from the simulator."""
    xi = np.asarray(xi, dtype=float)
    decay, step_sd = ou_step(params, grid.dt)
    d = np.zeros((grid.n_steps + 1,) + xi.shape[1:])
    for j in range(grid.n_steps):
        d[j + 1] = step_sd * xi[j] + d[j] * decay
    mean = params.y0 * np.exp(-params.alpha * grid.t)
    return mean.reshape((-1,) + (1,) * (xi.ndim - 1)) + d, d


def _steps(model, grid, states, dW):
    """Per step Phi_y, Phi_xi, Phi_yy, Phi_yxi, and per node f', f''."""
    dt = grid.dt
    p = model.params
    n = grid.n_steps
    if isinstance(model, ValidatedOUModel):
        sig, sig_p, sig_pp = model.vol.evaluate(np.asarray(states, dtype=float), Workspace())
        phi_xi = p.k * np.sqrt(-np.expm1(-2.0 * p.alpha * dt) / (2.0 * p.alpha))
        return (np.full(n, np.exp(-p.alpha * dt)), np.full(n, phi_xi), np.zeros(n),
                np.zeros(n), 2.0 * sig * sig_p, 2.0 * (sig_p**2 + sig * sig_pp))
    z = np.asarray(states, dtype=float)[:-1]
    root = np.sqrt(z)
    return (1.0 - dt + p.k * dW / (2.0 * root), p.k * np.sqrt(z * dt),
            -p.k * dW / (4.0 * z * root), p.k * np.sqrt(dt) / (2.0 * root),
            np.ones(n + 1), np.zeros(n + 1))


def gradient_hessian(model, grid, states, dW):
    """(g, H): the gradient and Hessian of F_n over the n step normals of
    one path, given its node states and increments."""
    n = grid.n_steps
    phi_y, phi_xi, phi_yy, phi_yxi, fp, fpp = _steps(model, grid, states, np.asarray(dW))
    c = grid.trapezoid_weights / grid.T
    J = np.zeros(n)
    K = np.zeros((n, n))
    g = np.zeros(n)
    H = np.zeros((n, n))
    for j in range(n + 1):
        g += c[j] * fp[j] * J
        H += c[j] * (fpp[j] * np.outer(J, J) + fp[j] * K)
        if j == n:
            break
        JJ = np.outer(J, J)
        mixed = np.zeros((n, n))
        mixed[:, j] = J
        mixed[j, :] += J
        K = phi_y[j] * K + phi_yy[j] * JJ + phi_yxi[j] * mixed
        J = phi_y[j] * J
        J[j] += phi_xi[j]
    return g, H


def dense_weight(model, grid, states, dW):
    """(g . xi, tr H, g^T H g, |g|^2, delta) of one path, from the dense
    gradient and Hessian."""
    g, H = gradient_hessian(model, grid, states, dW)
    xi = np.asarray(dW) / np.sqrt(grid.dt)
    g_xi, trace_h, hessian_gg, g_sq = g @ xi, np.trace(H), g @ H @ g, g @ g
    delta = (g_xi - trace_h) / g_sq + 2.0 * hessian_gg / g_sq**2
    return g_xi, trace_h, hessian_gg, g_sq, delta
