"""The paper's weight: the continuous-time Skorokhod weight, by brute force.

The paper writes delta as the Skorokhod integral of DF / ||DF||^2 with
kernels in continuous time. Evaluated on the grid by trapezoid dt-sums and
left-point dW-sums, it is the n -> infinity limit of the exact discrete
weight in ``avgvar.weights``, which the reproduction tests measure. These
are direct sums over explicit kernel matrices, O(n^2) for OU and O(n^3)
for the CIR denominator: keep n small.

OU, with nu = sigma sigma' and K(t1, t2) = e^{-a|t1-t2|} - e^{-a(t1+t2)}:

    delta = int_0^T eta_t (int_0^t e^{a h} dW_h) dt
          - int_0^T int_0^t e^{a h} D_h eta_t dh dt,
    eta_t = (a T / k) e^{-a t} nu(Y_t) / G,
    G = int int K(t1, t2) nu(Y_t1) nu(Y_t2) dt1 dt2.

CIR, with psi_{h,t} = exp{-(t-h)/2 - q int_h^t ds / Z_s} and
q = b/2 - k^2/8, delta = A - B - C2 + C3 (``cir_weight_triple_sum``), with
the denominator I = int int sqrt(Z_t1 Z_t2) int_0^{t1 ^ t2} psi_{h,t1}
psi_{h,t2} dh dt1 dt2.
"""

import numpy as np


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


def _suffix_trapezoid_weights(n_nodes, dt, j):
    """Trapezoid weights on [t_j, T] over nodes j..n, zero-padded below."""
    w = np.zeros(n_nodes)
    if j <= n_nodes - 2:
        w[j:] = dt
        w[j] = w[-1] = 0.5 * dt
    return w


def ou_weight_double_sum(nu_vals, nu_prime_vals, dW, grid, alpha, k):
    """(term_ito, term_trace, G) of the paper's OU weight for one path;
    delta = term_ito - term_trace."""
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

    # D[l, i] = D_{t_l} eta_{t_i} from the chain rule, then the double trapezoid
    left = (w * f) @ K
    m_vals = np.exp(-alpha * t) * g
    corr = np.empty(n1)
    for l in range(n1):
        corr[l] = 2.0 * k * np.exp(alpha * t[l]) * np.sum((left * w * m_vals)[l + 1:])
    lag = k * np.where(t[None, :] > t[:, None],
                       np.exp(-alpha * (t[None, :] - t[:, None])), 0.0)
    D = scale * np.exp(-alpha * t)[None, :] * (lag * g[None, :] / G
                                               - f[None, :] * corr[:, None] / G**2)
    term_trace = 0.0
    exp_ah = np.exp(alpha * t)
    for i in range(n1):
        term_trace += w[i] * np.sum(_inner_trapezoid_weights(n1, dt, i) * exp_ah * D[:, i])
    return term_ito, float(term_trace), float(G)


def q_constant(params):
    """q = b/2 - k^2/8; positive whenever the density condition 6k^2 < b holds."""
    return 0.5 * params.b - params.k**2 / 8.0


def log_phi(z_vals, grid, params):
    """log phi(t_i) = -t_i / 2 - q R_i, with R_i the trapezoid prefix of 1/Z."""
    inv = 1.0 / np.asarray(z_vals, dtype=float)
    recip = np.zeros_like(inv)
    recip[1:] = np.cumsum(0.5 * grid.dt * (inv[:-1] + inv[1:]))
    return -0.5 * grid.t - q_constant(params) * recip


def psi_matrix(log_phi_row):
    """psi_{t_l, t_i} as a full matrix [l, i], zero where l > i."""
    L = np.asarray(log_phi_row, dtype=float)
    idx = np.arange(L.size)
    diff = np.where(idx[None, :] >= idx[:, None], L[None, :] - L[:, None], -np.inf)
    return np.exp(diff)


def i_triple_sum(z_vals, log_phi_row, grid):
    """The denominator I for one path: for i <= j the inner dh-sum runs
    over [0, t_i] with its own trapezoid weights, so the pairs i <= j are
    (Q^T psi)[i, j] with Q[l, i] = W_i[l] psi[l, i]."""
    n1 = np.size(z_vals)
    psi = psi_matrix(log_phi_row)
    W = np.stack([_inner_trapezoid_weights(n1, grid.dt, i) for i in range(n1)], axis=1)
    upper = np.triu((W * psi).T @ psi)
    pairs = upper + upper.T - np.diag(np.diag(upper))
    a = grid.trapezoid_weights * np.sqrt(np.asarray(z_vals, dtype=float))
    return float(a @ pairs @ a)


def cir_weight_triple_sum(z_vals, dW, grid, params):
    """(term_ito, term_trace, term_dphi, term_denom, I) of the paper's CIR
    weight for one path; delta = term_ito - term_trace - term_dphi + term_denom."""
    z = np.asarray(z_vals, dtype=float)
    w = grid.trapezoid_weights
    dt = grid.dt
    n1 = z.size
    lp = log_phi(z, grid, params)
    psi = psi_matrix(lp)
    sqrt_z = np.sqrt(z)
    z_m32 = z**-1.5
    q = q_constant(params)
    I = i_triple_sum(z, lp, grid)

    # left-point inner Ito sums: sum_{l < i} psi_{l,i} dW_l
    p_inner = np.zeros(n1)
    for i in range(1, n1):
        p_inner[i] = np.sum(psi[:i, i] * np.asarray(dW)[:i])
    term_ito = (params.T / params.k) * float(np.sum(w * sqrt_z * p_inner)) / I

    W_in = [_inner_trapezoid_weights(n1, dt, i) for i in range(n1)]
    W_suf = [_suffix_trapezoid_weights(n1, dt, j) for j in range(n1)]
    f_vals = np.array([np.sum(W_in[i] * psi[:, i] ** 2) for i in range(n1)])
    term_trace = 0.5 * params.T * float(np.sum(w * f_vals)) / I

    abar = np.array([np.sum(W_in[i] * sqrt_z * psi[:, i] * f_vals) for i in range(n1)])
    w2 = np.array([np.sum(W_in[i] * z_m32 * psi[:, i] * f_vals) for i in range(n1)])
    term_dphi = q * params.T * float(np.sum(w * sqrt_z * w2)) / I

    j_hat = np.array([np.sum(W_suf[j] * sqrt_z * psi[j, :]) for j in range(n1)])
    rho = abar + f_vals * j_hat
    sum_rho = np.array([np.sum(W_suf[j] * sqrt_z * rho) for j in range(n1)])
    sum_j2 = np.array([np.sum(W_suf[j] * j_hat**2) for j in range(n1)])
    s1 = np.array([np.sum(W_suf[j] * psi[j, :] * rho) for j in range(n1)])
    s2 = np.array([np.sum(W_suf[j] * psi[j, :] * z_m32 * sum_rho) for j in range(n1)])
    s3 = np.array([np.sum(W_suf[j] * psi[j, :] * z_m32 * sum_j2) for j in range(n1)])
    term_denom = params.T * float(np.sum(w * j_hat * (s1 + 2.0 * q * (s2 - s3)))) / I**2
    return term_ito, term_trace, term_dphi, term_denom, I
