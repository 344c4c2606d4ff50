"""The OU weight: the linear case of ``avgvar.weights``.

The exact transition Y_{j+1} = e^{-alpha dt} Y_j + step_sd xi_j has the
constant step derivatives Phi_y = e^{-alpha dt} and Phi_xi = step_sd
(``paths.ou_step``), and f = sigma^2 has f' = 2 nu and f'' = 2 nu'. The
batch carries nu and nu' at the nodes (``batch.nu``, ``batch.nu_prime``)
and sum_j w_j nu_j D_j over the noise parts D_j of Y_j (``batch.nu_noise``),
from which g . xi follows, so this module never calls the volatility
function and never sees a normal.
"""

import numpy as np

from .paths import node_sum, ou_step
from .weights import _divergence


def skorokhod_weight_ou(batch, params, ws):
    """Per-path weights of a batch of OU paths, as a ``WeightBatch``. The
    scheme is linear in the normals, so <grad Y_j, xi> is the noise part
    D_j of Y_j and g . xi = sum_j c_j f'_j D_j = (2 / T) ``batch.nu_noise``,
    which the path pass sums while the normals are in cache. The weight
    runs in place over ``batch.nu`` and spends it: the adjoint, the
    gradient and then V / Phi_xi. It takes no slot of ``ws``, which it
    accepts for the signature both weights share."""
    grid = batch.grid
    phi_y, phi_xi = ou_step(params, grid.dt)
    nu_prime = batch.nu_prime
    c = 2.0 * grid.trapezoid_weights / grid.T  # c_j f'_j = c nu_j, c_j f''_j = c nu'_j
    lam = np.multiply(batch.nu, c[:, None], out=batch.nu)
    for j in range(len(lam) - 2, 0, -1):
        lam[j] += lam[j + 1] * phi_y
    g = lam[1:]  # g_{j-1} in row j; row 0 is spent
    g *= phi_xi
    g_sq = node_sum(g, g)
    lam[0] = 0.0
    for j in range(1, len(lam)):
        lam[j] += lam[j - 1] * phi_y
    lam *= lam
    lam *= c[:, None]
    s = np.zeros_like(c)
    for j in range(1, len(s)):
        s[j] = phi_y * phi_y * s[j - 1] + phi_xi * phi_xi
    return _divergence(batch.nu_noise * (2.0 / grid.T), node_sum(nu_prime, c * s),
                       phi_xi**2 * node_sum(lam, nu_prime), g_sq)
