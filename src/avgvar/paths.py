"""Path simulation on a uniform grid, vectorized across paths.

Conventions used throughout the package (the weights depend on them):

  * dt-integrals are trapezoid sums over the grid nodes, so the averaged
    variance is F_n = sum_j w_j f(Y_j) / T,
  * the volatility driver steps on standard normals xi_i, one per step,
    and the weights differentiate the scheme with respect to them; a CIR
    batch stores the increments dW_i = xi_i * sqrt(dt).

The OU driver uses its exact Gaussian transition

    Y_{i+1} = Y_i e^{-a dt} + k sqrt((1 - e^{-2 a dt}) / (2 a)) xi_i,

so the law of the path at the nodes has no discretization bias. The CIR
variance uses full-truncation Euler with a positivity floor, the standard
weakly convergent positive-preserving scheme, whose step the weight
differentiates. The floor keeps Z > 0, so full truncation's max(Z, 0) is
a no-op and is not taken.

Layout: both models keep a chunk of P consecutive paths, a ``range``,
time-major, as C-contiguous (n, P) and (n+1, P) arrays (``PathBatch``)
whose rows the recursions, the weights and their sweeps step. A batch's
normals come only from a noise stream, through ``simulate_*_paths``,
which ask it for one tile of TILE_ROWS step rows of the range at a time
(``rng.NoiseStream.normal_matrix``); the stream fixes whether the paths
are antithetic pairs. The OU pass runs once over tiles of node rows:
each tile's normals are drawn, stepped, evaluated, summed into F and the
noise sum of g . xi and guarded while they are in cache, and only nu and
nu' are whole arrays: an OU batch keeps the states of its last node only,
which is all an ensemble reads of them, and a caller that needs a whole OU
path rebuilds it from the stream's normals (``reference.ou_path``). The
CIR simulator draws each tile straight into its rows of dW, and the CIR
weight's kernel (``weights_cir.cir_kernel``) writes its step derivatives
one tile at a time into tile-sized slots. Every per-path sum over the
nodes adds in node order as ``node_sum`` does, so a path's values do not
depend on how many paths share its batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid
from .models import nu_terms

Z_FLOOR = 1e-12
# node rows per tile of the OU pass: a tile's handful of (TILE_ROWS, 2048)
# arrays stays in a 2 MB L2 cache
TILE_ROWS = 16


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
class PathBatch:
    """P paths on an n-step grid. Every (n, P) or (n+1, P) field, here or
    in a subclass, is a C-contiguous time-major array whose column p is
    path ``path_indices[p]``."""

    grid: TimeGrid
    path_indices: range
    states: np.ndarray        # (n+1, P) Z (CIR) at the nodes; (1, P) Y (OU) at t_n
    avg_variance: np.ndarray  # (P,) F: trapezoid of sigma^2(Y) or Z, over T
    bad: np.ndarray           # (P,) the path breaks an assumption of its model


@dataclass
class OUPathBatch(PathBatch):
    """OU driver paths, which keep no normals and, of the states Y, only
    the last node row (``states``, (1, P)). sigma, sigma' and sigma'' are
    evaluated once per tile of nodes and reduced at once to
    ``avg_variance``, the guard ``bad`` (sigma' > 0 or sigma >= c fails at
    some node), ``nu``, ``nu_prime`` and ``nu_noise``: nu and nu' are the
    batch's two whole arrays."""

    nu: np.ndarray        # (n+1, P) sigma * sigma' at the nodes
    nu_prime: np.ndarray  # (n+1, P) sigma'^2 + sigma * sigma'' at the nodes
    nu_noise: np.ndarray  # (P,) sum_j w_j nu_j D_j, D_j the noise part of Y_j


@dataclass
class CIRPathBatch(PathBatch):
    """CIR variance paths, Z floored at Z_FLOOR. ``bad`` flags the paths
    with a floored step, where the scheme has no derivative and so the
    path no weight."""

    dW: np.ndarray  # (n, P) driver increments


def node_sum(a, b):
    """sum_j a[j, p] b[j] per column p of a time-major (m, P) array, with
    b an (m,) vector or an (m, P) array (then b[j, p]), added in node order
    so that a path's sum does not depend on the batch width. For P >= 2
    einsum adds row by row; on one column it would run a dot product in
    another order, so cumsum adds there (+ 0.0 turns a -0.0 sum into
    einsum's +0.0)."""
    if a.shape[1] == 1:
        return np.cumsum(a[:, 0] * (b if b.ndim == 1 else b[:, 0]))[-1:] + 0.0
    return np.einsum("jp,j->p" if b.ndim == 1 else "jp,jp->p", a, b)


def ou_step(params, dt):
    """(decay, step_sd) of the exact OU transition over one step dt."""
    decay = np.exp(-params.alpha * dt)
    step_sd = params.k * np.sqrt((1.0 - np.exp(-2.0 * params.alpha * dt))
                                 / (2.0 * params.alpha))
    return decay, step_sd


def simulate_ou_paths(model, grid, stream, path_indices, ws):
    """Simulate OU driver paths by their exact transition, in one pass over
    tiles of TILE_ROWS node rows. Per tile, the step normals are drawn into
    a tile slot and turned in place into the noise part D_j of the states,
    D_j = e^{-alpha dt} D_{j-1} + step_sd xi_{j-1} from D_0 = 0, and
    Y_j = y0 e^{-alpha t_j} + D_j into another tile slot, of which the
    batch keeps the last node row only; sigma, sigma' and sigma'' are
    evaluated into tile-sized slots of ``ws``; the guard is applied into
    the bool tile slot ``mask``; nu and nu' are written into their
    whole-array slots; sigma^2 w_j, formed in place in sigma, is added to F
    row by row, in the node order of ``node_sum``; and w_j nu_j D_j is
    added to ``nu_noise``. The scheme is linear in the normals, so
    <grad Y_j, xi> = D_j and the weight reads g . xi off that sum
    (``weights_ou.skorokhod_weight_ou``): no normal outlives its tile.
    With k = 0, Y is exactly y0 e^{-alpha t_i}."""
    p = model.params
    vol = model.vol
    decay, step_sd = ou_step(p, grid.dt)
    floor = vol.lower_bound_c * (1.0 - 1e-12)
    w = grid.trapezoid_weights
    mean = p.y0 * np.exp(-p.alpha * grid.t)
    n, P = grid.n_steps, len(path_indices)
    nu, nu_prime = ws.take("nu", (n + 1, P)), ws.take("nu_prime", (n + 1, P))
    nu_noise = np.zeros(P)
    total = np.zeros(P)
    ok = np.ones(P, dtype=bool)
    last = np.zeros(P)  # D at the node before the tile; within it, the step's scratch
    for lo in range(0, n + 1, TILE_ROWS):
        hi = min(lo + TILE_ROWS, n + 1)
        first = max(lo, 1)
        d = ws.take("noise", (hi - lo, P))
        d[:first - lo] = 0.0
        shock = stream.normal_matrix(path_indices, first - 1, hi - 1, out=d[first - lo:])
        shock *= step_sd
        for j in range(first - lo, hi - lo):
            np.multiply(d[j - 1] if j > 0 else last, decay, out=last)
            d[j] += last
        np.copyto(last, d[-1])
        tile = np.add(d, mean[lo:hi, None], out=ws.take("y", d.shape))

        values = vol.evaluate(tile, ws)
        sig, sig_p = values[:2]
        # re-assert the volatility assumptions at every visited state
        mask = np.greater(sig_p, 0, out=ws.take("mask", tile.shape, bool))
        ok &= mask.all(axis=0)
        ok &= np.greater_equal(sig, floor, out=mask).all(axis=0)
        nu_terms(*values, out=(nu[lo:hi], nu_prime[lo:hi]))
        sig *= sig  # evaluate's own array, which the caller may overwrite
        sig *= w[lo:hi, None]
        for row in sig:
            total += row
        d *= nu[lo:hi]
        d *= w[lo:hi, None]
        for row in d:
            nu_noise += row

    return OUPathBatch(grid=grid, path_indices=path_indices,
                       states=tile[-1:].copy(), avg_variance=total / grid.T, bad=~ok,
                       nu=nu, nu_prime=nu_prime, nu_noise=nu_noise)


def simulate_cir_paths(model, grid, stream, path_indices, ws):
    """Simulate CIR variance paths by full-truncation Euler:
    Z_{i+1} = Z_i + (b - Z_i) dt + k sqrt(Z_i) dW_i, floored at Z_FLOOR, so
    every Z_i > 0 and the max(Z_i, 0) of full truncation is the identity.
    The normals of each tile of TILE_ROWS steps are drawn straight into
    those rows of dW, scaled to dW = xi sqrt(dt) and stepped while they
    are in cache. In the validated regime (k^2 < 2b, and 6k^2 < b for
    density work) the floor is essentially never hit; a path floored on
    any step is flagged ``bad``, once per tile, by a state equal to
    Z_FLOOR."""
    p = model.params
    n = grid.n_steps
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    P = len(path_indices)
    dW = ws.take("dW", (n, P))
    z = ws.take("states", (n + 1, P))
    z[0] = p.z0
    bad = np.zeros(P, dtype=bool)
    for lo in range(0, n, TILE_ROWS):
        hi = min(lo + TILE_ROWS, n)
        rows = stream.normal_matrix(path_indices, lo, hi, out=dW[lo:hi])
        rows *= sqrt_dt
        for j in range(lo, hi):
            zj = z[j]
            np.maximum(zj + (p.b - zj) * dt + p.k * np.sqrt(zj) * dW[j], Z_FLOOR,
                       out=z[j + 1])
        bad |= (z[lo + 1:hi + 1] == Z_FLOOR).any(axis=0)

    return CIRPathBatch(grid=grid, path_indices=path_indices,
                        dW=dW, states=z, avg_variance=node_sum(z, grid.trapezoid_weights) / grid.T,
                        bad=bad)


def sample_terminal_asset(avg_variance, params, stream, path_indices):
    """Terminal asset prices given averaged variances, under the pricing measure.

    Because the asset driver is independent of the volatility driver, S_T
    conditional on the volatility path is lognormal with total variance
    sig_bar^2 T:

        S_T = s0 exp(r T - sig_bar^2 T / 2 + sig_bar sqrt(T) xi).
    """
    avg_variance = np.asarray(avg_variance)
    xi = stream.normal_matrix(path_indices, 0, 1)[0]
    sig_bar = np.sqrt(avg_variance)
    T = params.T
    return params.s0 * np.exp(params.r * T - 0.5 * avg_variance * T
                              + sig_bar * np.sqrt(T) * xi)
