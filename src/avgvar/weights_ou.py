"""Skorokhod density weights for the OU-driven volatility model.

For F = averaged variance (1/T) int_0^T sigma^2(Y_s) ds, the density of F
is E[1{F > x} delta] where delta is the Skorokhod integral of DF/||DF||^2.
Writing nu = sigma * sigma', the weight evaluates per path as

    delta = int_0^T eta_t (int_0^t e^{a h} dW_h) dt
          - int_0^T int_0^t e^{a h} D_h eta_t dh dt,

    eta_t = (a T / k) e^{-a t} nu(Y_t) / G,

    G = int_0^T int_0^T [e^{-a|t1-t2|} - e^{-a(t1+t2)}] nu(Y_t1) nu(Y_t2) dt1 dt2,

and the stochastic derivative of eta is, by the chain rule with
D_h Y_t = k e^{-a(t-h)} 1{h<t},

    D_h eta_t = a T e^{-a t} [ e^{-a(t-h)} 1{h<t} nu'(Y_t) / G
                                - nu(Y_t) 2 e^{a h} C(h) / G^2 ],

    C(h) = int_0^T int_h^T K(t1,t2) nu(Y_t1) e^{-a t2} nu'(Y_t2) dt2 dt1,

where K is the bracketed kernel (the two symmetric correction terms of the
raw chain-rule expression collapse into 2 e^{a h} C(h) because K(t1,t2) is
symmetric). Note the prefactor a T: the factor k from D_h Y_t cancels the
1/k in eta. A pathwise finite-difference check of d eta / d(dW) pins this
scale. K is the covariance kernel (times 2a) of an OU process started at
0, hence positive semidefinite: G > 0 on every path with nu > 0.

Everything here is evaluated in O(n) per path via prefix/suffix sums that
reproduce, term by term, the trapezoid / masked-sum quadratures of the
brute-force double sums in ``reference``:

  * dt-integrals: trapezoid over all nodes,
  * dW-integrals: left-point masked sums (strict i < j),
  * indicator integrals like int_h^T: global trapezoid weights masked to
    the strict index range (the integrand is zero at the boundary node),
  * inner dh-integrals over [0, t]: trapezoid on the truncated node range.

nu and nu' at the nodes come with the path batch (``batch.nu`` and
``batch.nu_prime``): the simulator evaluates sigma, sigma' and sigma'' in
one pass and reduces them at once, so this module never calls the
volatility function.

Unlike the CIR kernel (whose exponent grows with the random path and is
therefore kept in ratio form), the exponentials here are the deterministic
e^{+-a t} and e^{2 a h}: they stay in float64 range for a T up to ~350.
Beyond that the per-path guards flag nonfinite weights and the ensemble
aborts loudly rather than returning garbage.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class OUWeightBatch:
    """Per-path weights with their diagnostic components.

    delta = term_ito - term_trace holds exactly by construction. ``bad``
    flags paths whose denominator failed the positivity guard; their delta
    is NaN and they must be excluded (and counted) by the caller.
    """

    delta: np.ndarray       # (P,)
    term_ito: np.ndarray    # (P,)
    term_trace: np.ndarray  # (P,)
    G: np.ndarray           # (P,)
    bad: np.ndarray         # (P,) bool


def denominator_g(nu_vals, grid, alpha):
    """The double-integral denominator G, factorized to O(n) per path.

    Splitting K into the |t1-t2| part and the separable e^{-a(t1+t2)} part,
    the symmetric double sum reduces to one prefix sweep:

        sum_{i,j} w_i w_j e^{-a|ti-tj|} f_i f_j
            = 2 sum_j w_j f_j e^{-a tj} (sum_{i<j} w_i f_i e^{a ti})
              + sum_i w_i^2 f_i^2.
    """
    f = np.atleast_2d(nu_vals)
    w = grid.trapezoid_weights
    t = grid.t
    E = np.exp(-alpha * t)
    A = np.exp(alpha * t)

    wf = w * f
    u_excl = np.zeros_like(f)
    np.cumsum(wf[:, :-1] * A[:-1], axis=1, out=u_excl[:, 1:])
    s_sep = np.einsum("pj,j->p", wf, E)
    first = 2.0 * np.sum(wf * E * u_excl, axis=1) + np.sum((wf * f) * w, axis=1)
    return first - s_sep**2


def eta_nodes(nu_vals, grid, alpha, k, G):
    """eta_t = (a T / k) e^{-a t} nu(Y_t) / G at every node."""
    f = np.atleast_2d(nu_vals)
    G = np.atleast_1d(G)
    scale = alpha * grid.T / k
    return scale * np.exp(-alpha * grid.t) * f / G[:, None]


def c_of_h(nu_vals, nu_prime_vals, grid, alpha):
    """C(h) at every node, O(n) per path.

    By Fubini the h-cut only restricts the t2 variable, so with
    kappa(t2) = int_0^T K(t1, t2) nu(Y_t1) dt1 one suffix sweep gives
    C(h) = int_h^T e^{-a t2} nu'(Y_t2) kappa(t2) dt2. kappa itself comes
    from one forward and one backward prefix sum. Both sweeps run in place,
    so at most three whole arrays are live besides the inputs.
    """
    f = np.atleast_2d(nu_vals)
    g = np.atleast_2d(nu_prime_vals)
    w = grid.trapezoid_weights
    t = grid.t
    E = np.exp(-alpha * t)
    A = np.exp(alpha * t)

    wf = w * f
    kappa = wf * A
    np.cumsum(kappa, axis=1, out=kappa)  # u_incl, becomes kappa
    # v[:, j] = wf_{j+1} E_{j+1}, so the reversed in-place cumsum reads each
    # element before it writes it and yields the strict suffix v_excl
    v = np.empty_like(kappa)
    np.multiply(wf[:, 1:], E[1:], out=v[:, :-1])
    v[:, -1] = 0.0
    s_sep = np.einsum("pj,j->p", wf, E)
    del wf
    np.cumsum(v[:, ::-1], axis=1, out=v[:, ::-1])
    kappa *= E
    v *= A
    kappa += v  # E u_incl + A v_excl
    np.multiply(E, s_sep[:, None], out=v)
    kappa -= v

    np.multiply(w * E, g, out=v)
    kappa *= v  # s = w E g kappa
    del v
    np.cumsum(kappa, axis=1, out=kappa)
    # masked suffix: C[l] = sum_{j>l} s_j, C[n] = 0
    return np.subtract(kappa[:, -1:].copy(), kappa, out=kappa)


def skorokhod_weight_ou(batch, params):
    """Compute the per-path Skorokhod weight for a batch of OU paths.

    The trace term integrates e^{a h} D_h eta_t over the lower triangle
    h <= t; substituting the two pieces of D_h eta_t gives, per node t_i,

        X_i = a T e^{-a ti} [ (g_i / G) e^{-a ti} R1_i
                               - (2 f_i / G^2) R2_i ],

    with R1 the [0, t_i]-trapezoid of e^{2 a h} (top node zeroed by the
    strict indicator) and R2 the [0, t_i]-trapezoid of e^{2 a h} C(h); both
    are rolling prefix expressions, so the whole weight is O(n) per path.
    """
    alpha, k = params.alpha, params.k
    grid = batch.grid
    w = grid.trapezoid_weights
    t = grid.t
    dt = grid.dt

    f, g = batch.nu, batch.nu_prime
    G = denominator_g(f, grid, alpha)
    bad = ~(G > 0) | ~np.isfinite(G)
    G_safe = np.where(bad, 1.0, G)

    eta = eta_nodes(f, grid, alpha, k, G_safe)
    term_ito = np.sum(w * eta * batch.ito_prefix, axis=1)
    del eta

    C = c_of_h(f, g, grid, alpha)

    q_nodes = np.exp(2.0 * alpha * t)
    # interior prefix sums over l = 1 .. i-1
    cum_q = np.zeros_like(t)
    np.cumsum(q_nodes[1:-1], out=cum_q[2:])
    r1 = np.zeros_like(t)
    r1[1:] = 0.5 * dt + dt * cum_q[1:]

    qc = q_nodes * C
    del C
    cum_qc = np.zeros_like(qc)
    np.cumsum(qc[:, 1:-1], axis=1, out=cum_qc[:, 2:])
    r2 = np.zeros_like(qc)
    r2[:, 1:] = 0.5 * dt * qc[:, :1] + dt * cum_qc[:, 1:] + 0.5 * dt * qc[:, 1:]
    del qc, cum_qc

    E = np.exp(-alpha * t)
    scale = alpha * grid.T  # k of D_h Y cancels the 1/k of eta
    inner = scale * E * ((g / G_safe[:, None]) * E * r1
                         - (2.0 * f / G_safe[:, None] ** 2) * r2)
    term_trace = np.einsum("pj,j->p", inner, w)

    delta = term_ito - term_trace
    bad |= ~np.isfinite(delta)
    delta = np.where(bad, np.nan, delta)
    return OUWeightBatch(delta=delta, term_ito=term_ito, term_trace=term_trace,
                         G=G, bad=bad)

