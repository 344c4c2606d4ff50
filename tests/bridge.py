"""Chosen normals for the path builders, and Brownian-bridge refinement of
Wiener increments, for the tests that check convergence under grid halving
on matched noise."""

import numpy as np

from avgvar.workspace import Workspace

# the noise purpose of the bridge normals of halving ``level``: PURPOSE_BRIDGE
# + level, apart from the package's own purposes (avgvar.rng)
PURPOSE_BRIDGE = 16


class GivenNormals:
    """A noise stream whose path p draws row p of the (paths, steps) array
    ``xi``: the way a test builds a batch on normals of its choosing. Like
    ``NoiseStream.normal_matrix`` it returns steps lo..hi-1 of a range of
    paths time-major."""

    def __init__(self, xi):
        self.xi = np.asarray(xi, dtype=float)

    def normal_matrix(self, paths, lo, hi, out=None):
        assert paths.step == 1 and paths.stop <= self.xi.shape[0] and hi <= self.xi.shape[1]
        rows = self.xi[paths.start:paths.stop, lo:hi].T
        if out is None:
            return rows
        out[:] = rows
        return out


def paths_from_increments(simulate, model, grid, dW):
    """The batch that ``simulate`` (``simulate_ou_paths`` or
    ``simulate_cir_paths``) builds on the Wiener increments ``dW``, one row
    of n_steps per path, in a workspace of its own."""
    dW = np.asarray(dW, dtype=float)
    stream = GivenNormals(dW / np.sqrt(grid.dt))
    return simulate(model, grid, stream, range(dW.shape[0]), Workspace())


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
