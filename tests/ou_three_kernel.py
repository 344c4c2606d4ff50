"""The OU weight by its three O(n) kernels: G, eta and C(h).

This is the route the fused weight in ``avgvar.weights_ou`` replaced, kept
as an oracle: the same quadratures, factorized kernel by kernel. It forms
C(h) as a total minus a prefix and then scales it by e^{2 a h}, which
cancels at large alpha, so it is a reference at small alpha only (the
brute-force double sums hold at every alpha).

The kernels also have brute-force O(n^2) evaluations here, on the
materialized K matrix of ``avgvar.reference``, and G for flat nu has a
closed form, used as a frozen oracle value:

    psi_closed_form(x, a) = int_0^x int_0^x [e^{-a|u-v|} - e^{-a(u+v)}] du dv
                          = (4 e^{-a x} - e^{-2 a x} + 2 a x - 3) / a^2,

derived from int int e^{-a|u-v|} = 2 (a x - 1 + e^{-a x}) / a^2 and
int int e^{-a(u+v)} = (1 - e^{-a x})^2 / a^2, and confirmed against a
direct Riemann double sum.
"""

import numpy as np

from avgvar.reference import _k_matrix


def denominator_g(nu_vals, grid, alpha):
    """G from one prefix sweep over the |t1-t2| part of K and the separable
    e^{-a(t1+t2)} part:

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
    return (alpha * grid.T / k) * np.exp(-alpha * grid.t) * f / G[:, None]


def c_of_h(nu_vals, nu_prime_vals, grid, alpha):
    """C(h) at every node: with kappa(t2) = int_0^T K(t1, t2) nu(Y_t1) dt1,
    C(h) = int_h^T e^{-a t2} nu'(Y_t2) kappa(t2) dt2, a total minus a prefix."""
    f = np.atleast_2d(nu_vals)
    g = np.atleast_2d(nu_prime_vals)
    w = grid.trapezoid_weights
    t = grid.t
    E = np.exp(-alpha * t)
    A = np.exp(alpha * t)

    wf = w * f
    u_incl = np.cumsum(wf * A, axis=1)
    v_excl = np.zeros_like(f)
    np.cumsum((wf * E)[:, :0:-1], axis=1, out=v_excl[:, -2::-1])
    s_sep = np.einsum("pj,j->p", wf, E)
    kappa = E * u_incl + A * v_excl - E * s_sep[:, None]

    prefix = np.cumsum(w * E * g * kappa, axis=1)
    return prefix[:, -1:] - prefix


def weight_terms(batch, params):
    """(term_ito, term_trace, G) per path from the three kernels.

    The trace term integrates e^{a h} D_h eta_t over h <= t; per node t_i

        X_i = a T e^{-a ti} [ (g_i / G) e^{-a ti} R1_i - (2 f_i / G^2) R2_i ],

    with R1 the [0, t_i]-trapezoid of e^{2 a h} (top node zeroed by the
    strict indicator) and R2 the [0, t_i]-trapezoid of e^{2 a h} C(h).
    """
    alpha, k = params.alpha, params.k
    grid = batch.grid
    w, t, dt = grid.trapezoid_weights, grid.t, grid.dt
    f, g = batch.nu.T, batch.nu_prime.T

    G = denominator_g(f, grid, alpha)
    ito_prefix = np.zeros_like(f)
    np.cumsum(np.exp(alpha * t[:-1]) * batch.dW.T, axis=1, out=ito_prefix[:, 1:])
    term_ito = np.sum(w * eta_nodes(f, grid, alpha, k, G) * ito_prefix, axis=1)

    q = np.exp(2.0 * alpha * t)
    cum_q = np.zeros_like(t)
    np.cumsum(q[1:-1], out=cum_q[2:])
    r1 = np.zeros_like(t)
    r1[1:] = 0.5 * dt + dt * cum_q[1:]

    qc = q * c_of_h(f, g, grid, alpha)
    cum_qc = np.zeros_like(qc)
    np.cumsum(qc[:, 1:-1], axis=1, out=cum_qc[:, 2:])
    r2 = np.zeros_like(qc)
    r2[:, 1:] = 0.5 * dt * qc[:, :1] + dt * cum_qc[:, 1:] + 0.5 * dt * qc[:, 1:]

    E = np.exp(-alpha * t)
    inner = alpha * grid.T * E * ((g / G[:, None]) * E * r1
                                  - (2.0 * f / G[:, None] ** 2) * r2)
    return term_ito, np.einsum("pj,j->p", inner, w), G


def psi_closed_form(x, alpha):
    a = alpha
    return (4.0 * np.exp(-a * x) - np.exp(-2.0 * a * x) + 2.0 * a * x - 3.0) / a**2


def g_double_sum(nu_vals, grid, alpha):
    """Direct O(n^2) evaluation of the denominator G for one path."""
    f = np.asarray(nu_vals, dtype=float)
    w = grid.trapezoid_weights
    K = _k_matrix(grid.t, alpha)
    return float((w * f) @ K @ (w * f))


def c_double_sum(nu_vals, nu_prime_vals, grid, alpha):
    """Direct evaluation of C(h) at every node: for each l the t2 sum is
    masked to j2 > l with global trapezoid weights (the strict-indicator
    convention shared with the factorized route)."""
    f = np.asarray(nu_vals, dtype=float)
    g = np.asarray(nu_prime_vals, dtype=float)
    w = grid.trapezoid_weights
    t = grid.t
    K = _k_matrix(t, alpha)
    m_vals = np.exp(-alpha * t) * g
    left = (w * f) @ K  # sum over t1 for each t2
    out = np.empty(t.size)
    for l in range(t.size):
        mask = np.zeros(t.size)
        mask[l + 1:] = 1.0
        out[l] = np.sum(left * w * m_vals * mask)
    return out


def dh_eta_double_sum(nu_vals, nu_prime_vals, grid, alpha, k, h_index, t_index):
    """D_h eta_t at one (h, t) node pair from the raw chain-rule expression.

    Uses D_h Y_t = k e^{-a(t-h)} 1{h<t} explicitly and keeps the two
    symmetric correction summands separate instead of folding them into
    2 e^{a h} C(h), so it exercises a different algebraic route than the
    production code.
    """
    f = np.asarray(nu_vals, dtype=float)
    g = np.asarray(nu_prime_vals, dtype=float)
    w = grid.trapezoid_weights
    t = grid.t
    K = _k_matrix(t, alpha)
    G = (w * f) @ K @ (w * f)

    h = t[h_index]
    # D_h Y at the t2 nodes times nu': k e^{-a(t-h)} 1{h<t} nu'(Y_t)
    dy_nu = k * np.where(t > h, np.exp(-alpha * (t - h)), 0.0) * g
    corr = (w * f) @ K @ (w * dy_nu) + (w * dy_nu) @ K @ (w * f)

    ti = t[t_index]
    first = k * np.exp(-alpha * (ti - h)) * g[t_index] / G if ti > h else 0.0
    scale = alpha * grid.T / k
    return scale * np.exp(-alpha * ti) * (first - f[t_index] * corr / G**2)
