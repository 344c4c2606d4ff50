"""The CIR weight: the nonlinear case of ``avgvar.weights``.

At a step that is not floored, full-truncation Euler
Z_{j+1} = Z_j + (b - Z_j) dt + k sqrt(Z_j) dW_j with dW_j = sqrt(dt) xi_j
(``paths.cir_paths_from_increments``) has the step derivatives

    Phi_z   = 1 - dt + k dW_j / (2 sqrt(Z_j)),   Phi_xi  = k sqrt(Z_j dt),
    Phi_zz  = -k dW_j / (4 Z_j^{3/2}),           Phi_zxi = k sqrt(dt) / (2 sqrt(Z_j)),

and Phi_xixi = 0; F, the trapezoid of Z over T, has f' = 1 and f'' = 0.
At a floored step Phi has no derivative, and ``run_ensemble`` fails every
weighted path that took one.
"""

import numpy as np

from .weights import sweep_weight
from .workspace import take


def cir_kernel(batch, params, ws=None):
    """The step derivatives (Phi_z, Phi_xi, Phi_zz, Phi_zxi) of a batch of
    CIR paths, each a time-major (n, P) array: with a workspace ``ws``
    its slots phi_z, sqrt_z, tmp0 and phi_zxi."""
    z = batch.states[:-1]
    dW = batch.dW
    dt = batch.grid.dt
    k = params.k
    phi_xi = np.sqrt(z, out=take(ws, "sqrt_z", dW.shape))
    r = np.divide(0.5 * k, phi_xi, out=take(ws, "phi_zxi", dW.shape))  # k / (2 sqrt Z)
    phi_z = np.multiply(r, dW, out=take(ws, "phi_z", dW.shape))
    phi_zz = np.divide(phi_z, z, out=take(ws, "tmp0", dW.shape))
    phi_zz *= -0.5
    phi_z += 1.0 - dt
    r *= np.sqrt(dt)
    phi_xi *= k * np.sqrt(dt)
    return phi_z, phi_xi, phi_zz, r


def skorokhod_weight_cir(batch, params, ws=None):
    """Per-path weights of a batch of CIR paths, as a ``WeightBatch``.
    The step derivatives come from ``cir_kernel``, looked up as a module
    global at each call."""
    steps = cir_kernel(batch, params, ws)
    return sweep_weight(batch.grid, *steps, batch.dW, ws=ws)
