"""The CIR weight: the nonlinear case of ``avgvar.weights``.

At a step that is not floored, full-truncation Euler
Z_{j+1} = Z_j + (b - Z_j) dt + k sqrt(Z_j) dW_j with dW_j = sqrt(dt) xi_j
(``paths.simulate_cir_paths``) has the step derivatives

    Phi_z   = 1 - dt + k dW_j / (2 sqrt(Z_j)),   Phi_xi  = k sqrt(Z_j dt),
    Phi_zz  = -k dW_j / (4 Z_j^{3/2}),           Phi_zxi = k sqrt(dt) / (2 sqrt(Z_j)),

and Phi_xixi = 0; F, the trapezoid of Z over T, has f' = 1 and f'' = 0.
At a floored step Phi has no derivative: the path pass flags a path that
took one ``bad``, and ``run_ensemble`` fails it.
"""

import numpy as np

from .paths import TILE_ROWS, node_sum
from .weights import _divergence


def cir_kernel(batch, params, ws, lo, hi):
    """The step derivatives (Phi_z, Phi_xi, Phi_zz, Phi_zxi) of step rows
    lo..hi-1 of a batch of CIR paths, each a time-major (hi - lo, P) array
    in tile-sized slots phi_z, phi_xi, phi_zz and phi_zxi of ``ws``."""
    z = batch.states[lo:hi]
    dW = batch.dW[lo:hi]
    dt = batch.grid.dt
    k = params.k
    phi_xi = np.sqrt(z, out=ws.take("phi_xi", dW.shape))
    r = np.divide(0.5 * k, phi_xi, out=ws.take("phi_zxi", dW.shape))  # k / (2 sqrt Z)
    phi_z = np.multiply(r, dW, out=ws.take("phi_z", dW.shape))
    phi_zz = np.divide(phi_z, z, out=ws.take("phi_zz", dW.shape))
    phi_zz *= -0.5
    phi_z += 1.0 - dt
    r *= np.sqrt(dt)
    phi_xi *= k * np.sqrt(dt)
    return phi_z, phi_xi, phi_zz, r


def skorokhod_weight_cir(batch, params, ws):
    """Per-path weights of a batch of CIR paths, as a ``WeightBatch``.
    Both sweeps take the step derivatives a tile at a time from
    ``cir_kernel``, looked up as a module global at each call, and spend
    them. The backward pass runs over tiles from the last, and leaves
    g_j = Phi_xi lambda_{j+1} in rows 1..n of slot ``lam`` of ``ws``; the
    forward pass runs over tiles from the first, and first overwrites each
    tile's Phi_zxi, g and Phi_xi with 2 Phi_zxi g, Phi_xi g and Phi_xi^2."""
    grid, dW = batch.grid, batch.dW
    c = grid.trapezoid_weights / grid.T
    n, P = dW.shape
    starts = range(0, n, TILE_ROWS)
    lam = ws.take("lam", (n + 1, P))
    lam[:] = c[:, None]
    for lo in reversed(starts):
        hi = min(lo + TILE_ROWS, n)
        phi_z, phi_xi = cir_kernel(batch, params, ws, lo, hi)[:2]
        for j in range(hi - 1, max(lo, 1) - 1, -1):
            lam[j] += lam[j + 1] * phi_z[j - lo]
        lam[lo + 1:hi + 1] *= phi_xi  # rows this tile's loop has read
    g = lam[1:]
    g_xi = node_sum(dW, g) / np.sqrt(grid.dt)
    g_sq = node_sum(g, g)

    x = np.zeros((4, P))  # V, U, S, D at the current node
    h = np.empty((2, P))
    acc = np.zeros((2, P))  # sum_j U_j and sum_j D_j over interior nodes
    for lo in starts:
        hi = min(lo + TILE_ROWS, n)
        phi_z, phi_xi, phi_zz, phi_zxi = cir_kernel(batch, params, ws, lo, hi)
        g_tile = g[lo:hi]
        phi_zxi *= g_tile
        phi_zxi *= 2.0
        g_tile *= phi_xi
        phi_xi *= phi_xi
        for i in range(hi - lo):
            np.multiply(x[0::2], phi_zz[i], out=h)
            h[0] += phi_zxi[i]
            h[0] *= x[0]
            x *= phi_z[i]
            x[2] *= phi_z[i]
            x[0] += g_tile[i]
            x[2] += phi_xi[i]
            x[1::2] += h
            if lo + i < n - 1:
                acc += x[1::2]
    acc += 0.5 * x[1::2]
    acc *= c[1]
    return _divergence(g_xi, acc[1], acc[0], g_sq)
