"""Brownian-bridge refinement of Wiener increments, for the tests that
check convergence under grid halving on matched noise."""

import numpy as np


def refine_increments(dW, dt, bridge_normals):
    """One Brownian-bridge halving of Wiener increments.

    Given increments over steps of size ``dt`` and one standard normal per
    step, returns increments over steps of size ``dt/2`` whose pairwise sums
    reproduce ``dW`` to floating-point roundoff: the first half-step is
    dW/2 + sqrt(dt)/2 * z (the conditional law of the midpoint), the second
    is the remainder.
    """
    dW = np.asarray(dW)
    z = np.asarray(bridge_normals)
    if z.shape != dW.shape:
        raise ValueError(f"need one bridge normal per step: {z.shape} vs {dW.shape}")
    first = 0.5 * dW + 0.5 * np.sqrt(dt) * z
    second = dW - first
    fine = np.empty(dW.shape[:-1] + (2 * dW.shape[-1],))
    fine[..., 0::2] = first
    fine[..., 1::2] = second
    return fine
