"""Brute-force reference evaluations of the weight kernels.

Everything here evaluates the same quadratures as the factorized O(n)
routines, but by materializing the full kernel matrices and summing
directly: O(n^2) for the OU double integrals, O(n^3) for the CIR triple
integral. On a common path the two routes must agree to roundoff; the self
check and the acceptance suite enforce < 1e-8 relative on fixed paths.

Intended for small n (tests use n = 64). Also houses the closed forms used
as frozen oracle values:

    psi_closed_form(x, a) = int_0^x int_0^x [e^{-a|u-v|} - e^{-a(u+v)}] du dv
                          = (4 e^{-a x} - e^{-2 a x} + 2 a x - 3) / a^2,

derived from int int e^{-a|u-v|} = 2 (a x - 1 + e^{-a x}) / a^2 and
int int e^{-a(u+v)} = (1 - e^{-a x})^2 / a^2, and confirmed against a
direct Riemann double sum.
"""

import numpy as np


def psi_closed_form(x, alpha):
    a = alpha
    return (4.0 * np.exp(-a * x) - np.exp(-2.0 * a * x) + 2.0 * a * x - 3.0) / a**2


def _k_matrix(t, alpha):
    """K(t1, t2) = e^{-a |t1 - t2|} - e^{-a (t1 + t2)} on the node grid."""
    tt = t[:, None]
    return np.exp(-alpha * np.abs(tt - t[None, :])) - np.exp(-alpha * (tt + t[None, :]))


def _inner_trapezoid_weights(n_nodes, dt, m):
    """Trapezoid weights on [0, t_m] over nodes 0..m, zero-padded to the grid."""
    w = np.zeros(n_nodes)
    if m >= 1:
        w[: m + 1] = dt
        w[0] = w[m] = 0.5 * dt
    return w


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


def ou_weight_double_sum(nu_vals, nu_prime_vals, dW, grid, alpha, k):
    """Direct evaluation of both OU weight terms (and G) for one path.

    The Ito term integrates eta against the left-point prefix
    sum_{i<j} e^{a t_i} dW_i at every node t_j, built here from ``dW``.
    """
    f = np.asarray(nu_vals, dtype=float)
    g = np.asarray(nu_prime_vals, dtype=float)
    w = grid.trapezoid_weights
    t = grid.t
    dt = grid.dt
    n1 = t.size
    K = _k_matrix(t, alpha)
    G = (w * f) @ K @ (w * f)
    scale = alpha * grid.T / k

    ito_prefix = np.zeros(n1)
    ito_prefix[1:] = np.cumsum(np.exp(alpha * t[:-1]) * np.asarray(dW, dtype=float))
    eta = scale * np.exp(-alpha * t) * f / G
    term_ito = float(np.sum(w * eta * ito_prefix))

    # D[l, i] from the unreduced chain rule (k carried by D_h Y), then the
    # double trapezoid.
    left = (w * f) @ K
    m_vals = np.exp(-alpha * t) * g
    corr = np.empty(n1)
    for l in range(n1):
        mask = np.zeros(n1)
        mask[l + 1:] = 1.0
        corr[l] = 2.0 * k * np.exp(alpha * t[l]) * np.sum(left * w * m_vals * mask)

    lag = k * np.where(t[None, :] > t[:, None],
                       np.exp(-alpha * (t[None, :] - t[:, None])), 0.0)
    D = scale * np.exp(-alpha * t)[None, :] * (lag * g[None, :] / G
                                               - f[None, :] * corr[:, None] / G**2)

    term_trace = 0.0
    exp_ah = np.exp(alpha * t)
    for i in range(n1):
        w_in = _inner_trapezoid_weights(n1, dt, i)
        term_trace += w[i] * np.sum(w_in * exp_ah * D[:, i])
    return term_ito, float(term_trace), float(G)


def psi_matrix(log_phi_row):
    """psi_{t_l, t_i} as a full matrix [l, i], zero where l > i."""
    L = np.asarray(log_phi_row, dtype=float)
    idx = np.arange(L.size)
    diff = np.where(idx[None, :] >= idx[:, None], L[None, :] - L[:, None], -np.inf)
    return np.exp(diff)


def i_triple_sum(z_vals, log_phi_row, grid):
    """Direct O(n^3) evaluation of the denominator I for one path."""
    z = np.asarray(z_vals, dtype=float)
    w = grid.trapezoid_weights
    dt = grid.dt
    n1 = z.size
    psi = psi_matrix(log_phi_row)
    sqrt_z = np.sqrt(z)

    total = 0.0
    for i in range(n1):
        for j in range(n1):
            m = min(i, j)
            w_in = _inner_trapezoid_weights(n1, dt, m)
            inner = np.sum(w_in[: m + 1] * psi[: m + 1, i] * psi[: m + 1, j])
            total += w[i] * w[j] * sqrt_z[i] * sqrt_z[j] * inner
    return float(total)


def _suffix_trapezoid_weights(n_nodes, dt, j):
    """Trapezoid weights on [t_j, T] over nodes j..n, zero-padded below."""
    w = np.zeros(n_nodes)
    if j <= n_nodes - 2:
        w[j:] = dt
        w[j] = w[-1] = 0.5 * dt
    return w


def cir_weight_triple_sum(z_vals, log_phi_row, dW, grid, params):
    """Direct evaluation of all four CIR weight terms (and I) for one path.

    Returns (term_ito, term_trace, term_dphi, term_denom, I), built from the
    explicit psi matrix with per-node trapezoid weight vectors instead of
    the rolling recursions.
    """
    z = np.asarray(z_vals, dtype=float)
    w = grid.trapezoid_weights
    dt = grid.dt
    n1 = z.size
    psi = psi_matrix(log_phi_row)
    sqrt_z = np.sqrt(z)
    z_m32 = z**-1.5
    q = 0.5 * params.b - params.k**2 / 8.0
    I = i_triple_sum(z_vals, log_phi_row, grid)

    # left-point masked inner Ito sums: sum_{l < i} psi_{l,i} dW_l
    p_inner = np.zeros(n1)
    for i in range(1, n1):
        p_inner[i] = np.sum(psi[:i, i] * np.asarray(dW)[:i])
    term_ito = (params.T / params.k) * float(np.sum(w * sqrt_z * p_inner)) / I

    f_vals = np.zeros(n1)
    for i in range(n1):
        w_in = _inner_trapezoid_weights(n1, dt, i)
        f_vals[i] = np.sum(w_in[: i + 1] * psi[: i + 1, i] ** 2)
    term_trace = 0.5 * params.T * float(np.sum(w * f_vals)) / I

    # forward kernels abar, W2 and backward kernel Jhat
    abar = np.zeros(n1)
    w2 = np.zeros(n1)
    for i in range(n1):
        w_in = _inner_trapezoid_weights(n1, dt, i)
        abar[i] = np.sum(w_in * sqrt_z * psi[:, i] * f_vals)
        w2[i] = np.sum(w_in * z_m32 * psi[:, i] * f_vals)
    term_dphi = q * params.T * float(np.sum(w * sqrt_z * w2)) / I

    j_hat = np.zeros(n1)
    for j in range(n1):
        w_suf = _suffix_trapezoid_weights(n1, dt, j)
        j_hat[j] = np.sum(w_suf * sqrt_z * psi[j, :])
    rho = abar + f_vals * j_hat

    sum_rho = np.zeros(n1)
    sum_j2 = np.zeros(n1)
    s1 = np.zeros(n1)
    s2 = np.zeros(n1)
    s3 = np.zeros(n1)
    for j in range(n1):
        w_suf = _suffix_trapezoid_weights(n1, dt, j)
        sum_rho[j] = np.sum(w_suf * sqrt_z * rho)
        sum_j2[j] = np.sum(w_suf * j_hat**2)
    for j in range(n1):
        w_suf = _suffix_trapezoid_weights(n1, dt, j)
        s1[j] = np.sum(w_suf * psi[j, :] * rho)
        s2[j] = np.sum(w_suf * psi[j, :] * z_m32 * sum_rho)
        s3[j] = np.sum(w_suf * psi[j, :] * z_m32 * sum_j2)
    term_denom = params.T * float(np.sum(w * j_hat * (s1 + 2.0 * q * (s2 - s3)))) / I**2

    return term_ito, term_trace, term_dphi, term_denom, I
