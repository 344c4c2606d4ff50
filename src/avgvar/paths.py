"""Path simulation on a uniform grid, vectorized across paths.

Conventions used throughout the package (the weight kernels depend on them):

  * dt-integrals are trapezoid sums over the grid nodes,
  * dW-integrals are left-point (Ito) sums over the step increments,
  * the stored volatility-driver increment is dW_i = xi_i * sqrt(dt) where
    xi_i are the same standard normals that drive the state recursion.

The OU driver uses its exact Gaussian transition

    Y_{i+1} = Y_i e^{-a dt} + k sqrt((1 - e^{-2 a dt}) / (2 a)) xi_i,

so the law of the path at the nodes has no discretization bias; the O(dt)
mismatch between the exact transition and left-point Ito sums downstream
vanishes under grid refinement. The CIR variance uses full-truncation Euler
with a positivity floor, the standard weakly convergent positive-preserving
scheme; exact noncentral-chi^2 sampling is of no use here because the
weight kernels need the pathwise integral of 1/Z on the grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid
from .models import nu_terms
from .workspace import take

Z_FLOOR = 1e-12
FLOOR_RATE_LIMIT = 1e-3  # per-path floored-step budget; above it a path fails


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T with trapezoid weights."""

    T: float
    n_steps: int

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def t(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @property
    def trapezoid_weights(self):
        w = np.full(self.n_steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


def make_grid(T, n_steps):
    if not (T > 0):
        raise InvalidGrid(f"T must be > 0, got {T}")
    if int(n_steps) != n_steps or n_steps < 2:
        raise InvalidGrid(f"n_steps must be an integer >= 2, got {n_steps}")
    return TimeGrid(T=float(T), n_steps=int(n_steps))


@dataclass
class OUPathBatch:
    """A batch of OU driver paths with the node values the weight consumes.

    sigma and its derivatives are evaluated once per batch and reduced at
    once to ``avg_variance``, the per-path guard ``bad`` and the weight's
    node values ``nu`` and ``nu_prime``; the batch keeps no sigma array.
    """

    grid: TimeGrid
    path_indices: np.ndarray
    dW: np.ndarray            # (P, n)
    states: np.ndarray        # (P, n+1) Y values
    avg_variance: np.ndarray  # (P,) trapezoid of sigma^2(Y) / T
    bad: np.ndarray           # (P,) sigma' > 0 or sigma >= c fails at some node
    nu: np.ndarray            # (P, n+1) sigma * sigma' at the nodes
    nu_prime: np.ndarray      # (P, n+1) sigma'^2 + sigma * sigma'' at the nodes


@dataclass
class CIRPathBatch:
    """A batch of CIR variance paths.

    ``recip_integral[p, j]`` is the trapezoid prefix of 1/Z up to t_j (the
    R_t the psi kernel needs); the psi-weighted Ito prefix is built later by
    the weight module because it depends on the model constant q. The
    simulator stores dW, states and recip_integral as transposed views of
    time-major (n+1, P) buffers, which the weight sweeps step row by row.
    ``bad`` flags paths whose floored steps exceed the budget
    FLOOR_RATE_LIMIT * n.
    """

    grid: TimeGrid
    path_indices: np.ndarray
    dW: np.ndarray             # (P, n)
    states: np.ndarray         # (P, n+1) Z values, floored at Z_FLOOR
    avg_variance: np.ndarray   # (P,) trapezoid of Z / T
    recip_integral: np.ndarray # (P, n+1)
    floored_steps: np.ndarray  # (P,) count of steps clipped at the floor
    bad: np.ndarray            # (P,) bool


def _ou_states(model, grid, xi, ws):
    """Y at the nodes by the exact transition, stepped on the normals xi."""
    p = model.params
    dt = grid.dt
    decay = np.exp(-p.alpha * dt)
    step_sd = p.k * np.sqrt((1.0 - np.exp(-2.0 * p.alpha * dt)) / (2.0 * p.alpha))

    y = take(ws, "states", (xi.shape[0], grid.n_steps + 1))
    y[:, 0] = p.y0
    for j in range(grid.n_steps):
        y[:, j + 1] = y[:, j] * decay + step_sd * xi[:, j]
    return y


def _ou_batch(model, grid, y, dW, path_indices, ws):
    """The batch of paths Y with increments dW, after one volatility pass
    reduced at once to what the guard and the weight use."""
    sig, sig_p, sig_pp = model.vol.evaluate(y, ws)
    sq = np.multiply(sig, sig, out=take(ws, "tmp0", y.shape))
    avg_variance = np.einsum("pj,j->p", sq, grid.trapezoid_weights) / grid.T
    # re-assert the volatility assumptions at every visited state
    mask = take(ws, "tmp2", y.shape, bool)
    ok = np.greater(sig_p, 0, out=mask).all(axis=1)
    ok &= np.greater_equal(sig, model.vol.lower_bound_c * (1.0 - 1e-12), out=mask).all(axis=1)
    nu, nu_prime = nu_terms(sig, sig_p, sig_pp, ws)

    if path_indices is None:
        path_indices = np.arange(dW.shape[0])
    return OUPathBatch(
        grid=grid,
        path_indices=np.asarray(path_indices, dtype=np.int64),
        dW=dW,
        states=y,
        avg_variance=avg_variance,
        bad=~ok,
        nu=nu,
        nu_prime=nu_prime,
    )


def ou_paths_from_increments(model, grid, dW, path_indices=None, ws=None):
    """Build OU paths from given driver increments (one row per path).

    The exact transition consumes xi = dW / sqrt(dt), so a path is a pure
    function of its increments; used by the Brownian-bridge refinement
    tests. With a workspace ``ws`` every whole array but xi comes from it.
    """
    dW = np.atleast_2d(np.asarray(dW, dtype=float))
    y = _ou_states(model, grid, dW / np.sqrt(grid.dt), ws)
    return _ou_batch(model, grid, y, dW, path_indices, ws)


def simulate_ou_paths(model, grid, stream, path_indices, antithetic=False, ws=None):
    """Simulate OU driver paths by their exact transition.

    Y steps on the normals as drawn, and their buffer is then scaled in
    place to dW = xi sqrt(dt). With k = 0 the recursion degenerates to the
    deterministic decay Y_{t_i} = y0 e^{-alpha t_i} exactly.
    """
    shape = (len(path_indices), grid.n_steps)
    xi = stream.normal_matrix(path_indices, grid.n_steps, antithetic=antithetic,
                              out=take(ws, "dW", shape))
    y = _ou_states(model, grid, xi, ws)
    dW = np.multiply(xi, np.sqrt(grid.dt), out=xi)
    return _ou_batch(model, grid, y, dW, path_indices, ws)


def cir_paths_from_increments(model, grid, dW, path_indices=None, ws=None):
    """Build CIR paths from given driver increments by full-truncation Euler.

    Z_{i+1} = Z_i + (b - Z_i) dt + k sqrt(max(Z_i, 0)) dW_i, then floored at
    Z_FLOOR. In the validated regime (k^2 < 2b, and 6k^2 < b for density
    work) the floor is essentially never hit; a path that is floored on
    more than FLOOR_RATE_LIMIT of its steps is flagged ``bad``.

    ``dW`` has one row per path. The recursion steps the rows of time-major
    (n, P) and (n+1, P) buffers, and the batch's fields are transposed
    views of them; a ``dW`` that is already such a view is not copied.
    With a workspace ``ws`` the states and the 1/Z prefix come from it.
    """
    p = model.params
    n = grid.n_steps
    dt = grid.dt
    dW = np.ascontiguousarray(np.atleast_2d(np.asarray(dW, dtype=float)).T)

    z = take(ws, "states", (n + 1, dW.shape[1]))
    z[0] = p.z0
    recip = take(ws, "recip", z.shape)
    recip[0] = 0.0
    inv_z = 1.0 / z[0]
    floored = np.zeros(dW.shape[1], dtype=np.int64)
    for j in range(n):
        zj = z[j]
        znext = zj + (p.b - zj) * dt + p.k * np.sqrt(np.maximum(zj, 0.0)) * dW[j]
        hit = znext < Z_FLOOR
        floored += hit
        np.copyto(znext, Z_FLOOR, where=hit)
        z[j + 1] = znext
        inv_next = 1.0 / znext
        np.add(recip[j], 0.5 * dt * (inv_z + inv_next), out=recip[j + 1])
        inv_z = inv_next

    # a running sum down the rows: each path's F is summed node by node
    avg_variance = np.einsum("jp,j->p", z, grid.trapezoid_weights) / grid.T

    if path_indices is None:
        path_indices = np.arange(dW.shape[1])
    return CIRPathBatch(
        grid=grid,
        path_indices=np.asarray(path_indices, dtype=np.int64),
        dW=dW.T,
        states=z.T,
        avg_variance=avg_variance,
        recip_integral=recip.T,
        floored_steps=floored,
        bad=floored > FLOOR_RATE_LIMIT * n,
    )


def simulate_cir_paths(model, grid, stream, path_indices, antithetic=False, ws=None):
    """Simulate CIR variance paths (full-truncation Euler; see
    cir_paths_from_increments)."""
    n = grid.n_steps
    xi = stream.normal_matrix(path_indices, n, antithetic=antithetic,
                              out=take(ws, "tmp0", (len(path_indices), n)))
    dW = np.multiply(xi.T, np.sqrt(grid.dt), out=take(ws, "dW", xi.T.shape))  # time-major
    return cir_paths_from_increments(model, grid, dW.T, path_indices=path_indices, ws=ws)


def sample_terminal_asset(avg_variance, params, stream, path_indices, antithetic=False):
    """Terminal asset prices given averaged variances, under the pricing measure.

    Because the asset driver is independent of the volatility driver, S_T
    conditional on the volatility path is lognormal with total variance
    sig_bar^2 T:

        S_T = s0 exp(r T - sig_bar^2 T / 2 + sig_bar sqrt(T) xi).
    """
    avg_variance = np.asarray(avg_variance)
    xi = stream.normal_matrix(path_indices, 1, antithetic=antithetic)[:, 0]
    sig_bar = np.sqrt(avg_variance)
    T = params.T
    return params.s0 * np.exp(params.r * T - 0.5 * avg_variance * T
                              + sig_bar * np.sqrt(T) * xi)
