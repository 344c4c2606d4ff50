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

from .weights import sweep_weight


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
    The sweeps take the step derivatives a tile at a time from
    ``cir_kernel``, looked up as a module global at each call."""
    def kernel(lo, hi):
        return cir_kernel(batch, params, ws, lo, hi)

    return sweep_weight(batch.grid, kernel, batch.dW, ws)
