"""Skorokhod density weights for the CIR (Heston) variance model.

For F = averaged variance (1/T) int_0^T Z_s ds, the density of F is
E[1{F > x} delta] with delta the Skorokhod integral of u = DF / ||DF||^2,

    u_h = (T/k) int_h^T sqrt(Z_t) Psi_{h,t} dt,
    psi_{h,t} = exp{ -(t-h)/2 - q int_h^t ds / Z_s },   q = b/2 - k^2/8,
    Psi_{h,t} = psi_{h,t} / I,
    I = int_0^T int_0^T sqrt(Z_t1 Z_t2) int_0^{t1 ^ t2} psi_{h,t1} psi_{h,t2} dh dt1 dt2.

Unlike the OU case, the inner integral int_0^t Psi_{h,t} dW_h is a
Skorokhod integral of a NON-adapted integrand (psi_{h,t} and I peek at the
future), so it cannot be evaluated as a plain Ito sum. Writing
psi_{h,t} = phi(t)/phi(h) with log phi(t) = -t/2 - q R_t (R the running
integral of 1/Z, phi(h)^{-1} adapted) and applying the divergence product
rule delta(F u) = F delta(u) - <DF, u> per time slice yields the fully
reduced, simulable expansion

    delta = A - B - C2 + C3,

    A  = (T/(k I)) int_0^T sqrt(Z_t) phi(t) P(t) dt,     P(t) = int_0^t phi(h)^{-1} dW_h (Ito)
    B  = (T/(2 I)) int_0^T Fhat(t) dt,                   Fhat(t) = int_0^t psi_{h,t}^2 dh
    C2 = (q T / I) int_0^T sqrt(Z_t) W2(t) dt,           W2(t) = int_0^t psi_{s,t} Z_s^{-3/2} Fhat(s) ds
    C3 = (T / I^2) int_0^T Jhat(h) [S1(h) + 2 q (S2(h) - S3(h))] dh

with the bounded suffix kernels

    Jhat(h) = int_h^T sqrt(Z_t) psi_{h,t} dt
    rho(t)  = abar(t) + Fhat(t) Jhat(t),   abar(t) = int_0^t sqrt(Z_s) psi_{s,t} Fhat(s) ds
    S1(h)   = int_h^T psi_{h,t} rho(t) dt
    S2(h)   = int_h^T psi_{h,s} Z_s^{-3/2} (int_s^T sqrt(Z_u) rho(u) du) ds
    S3(h)   = int_h^T psi_{h,s} Z_s^{-3/2} (int_s^T Jhat(l)^2 dl) ds.

A - B is the naive two-term weight; C2 comes from the stochastic
derivative of phi(t) (through R) and C3 from the derivative of the
denominator I, using D_h Z_t = k psi_{h,t} sqrt(Z_t) 1{h<t}. Dropping C2
and C3 leaves E[delta] visibly nonzero, which the duality battery catches.

Numerics: q > 0 in the validated density regime, so log phi is
nonincreasing and every recursion above advances by one-step ratios
psi_{j,j+1} <= 1 ("running shift"); no raw exp(-log phi) is ever formed,
so nothing overflows even when q R_t is large. Quadratures follow the
package conventions: trapezoid for dt/dh integrals, left-point masked sums
for dW integrals. The factorized denominator

    I = 2 sum_j w_j sqrt(Z_j) Atil_j + sum_i w_i^2 Z_i Fhat_i,
    Atil_j = sum_{i<j} w_i sqrt(Z_i) psi_{ti,tj} Fhat_i,

reproduces the brute-force triple sum in ``reference`` exactly. Neither
function here decides a failure: a path with I <= 0 gets whatever the
division gives, and ``run_ensemble`` alone flags the path and sets its
weight to NaN.

Layout: every recursion is a sweep over the rows of time-major (n+1, P)
buffers, one row of P paths per node, so each step reads and writes
contiguous memory. A quantity that is only reduced is folded into the
sweep that produces it and carried as a running row: Atil into I, the Ito
prefix into A, W2 into C2, and Jhat, S1, S2, S3 with the suffix trapezoids
of sqrt(Z) rho and Jhat^2 into C3. Besides sqrt(Z) and Z^{-3/2}, only
psi_step, Fhat and rho (built in place from abar) are held whole; log phi
is dropped as soon as psi_step is formed from it. The (P, n+1) fields of
the batches are transposed views of those buffers. The trapezoid sum of
Fhat in B is a running sum down the rows (einsum, not a BLAS product).
"""

from dataclasses import dataclass

import numpy as np

from .workspace import take


@dataclass
class CIRKernelBatch:
    """Per-path kernel state in running-shift form.

    ``psi_step`` holds the one-step ratios exp(log phi(t_{j+1}) - log phi(t_j))
    and ``f_hat`` is phi^2 F = int psi^2; the raw F(t) = exp(-2 log_phi) f_hat is
    never materialized. log phi itself is not kept: ``log_phi_nodes(batch, q)``
    recomputes it. The psi-weighted Ito prefix P(t) phi(t) =
    int_0^t psi_{h,t} dW_h is only needed in term A, so the sweep that builds
    it reduces it at once: ``ito_psi_prefix`` is the per-path trapezoid sum
    of sqrt(Z_t) P(t) phi(t). The (P, n+1) fields are transposed views of
    time-major (n+1, P) buffers.
    """

    q: float
    psi_step: np.ndarray       # (P, n)  one-step ratios psi_{t_j, t_{j+1}}
    f_hat: np.ndarray          # (P, n+1)
    ito_psi_prefix: np.ndarray # (P,)  sum_j w_j sqrt(Z_j) P(t_j) phi(t_j)
    I: np.ndarray              # (P,)


@dataclass
class CIRWeightBatch:
    """delta = term_ito - term_trace - term_dphi + term_denom, exactly.

    ``denominator`` is I.
    """

    delta: np.ndarray       # (P,)
    term_ito: np.ndarray    # (P,) A
    term_trace: np.ndarray  # (P,) B
    term_dphi: np.ndarray   # (P,) C2
    term_denom: np.ndarray  # (P,) C3
    denominator: np.ndarray # (P,) I


def q_constant(params):
    """q = b/2 - k^2/8; positive whenever the density condition 6k^2 < b holds."""
    return 0.5 * params.b - params.k**2 / 8.0


def log_phi_nodes(batch, q, ws=None):
    """log phi(t_i) = -t_i / 2 - q R_i per node, as the (P, n+1) view of a
    time-major buffer (slot tmp0 of a workspace ``ws``)."""
    recip = _time_major(batch.recip_integral)
    log_phi = np.multiply(recip, q, out=take(ws, "tmp0", recip.shape))
    np.subtract(-0.5 * batch.grid.t[:, None], log_phi, out=log_phi)
    return log_phi.T


def _time_major(a):
    """The C-ordered (n+1, P) form of a (P, n+1) field; no copy when the
    field is already a transposed view of such a buffer."""
    return np.ascontiguousarray(a.T)


def cir_kernel(batch, params, ws=None):
    """Assemble kernel state and the denominator I for a batch of CIR paths.

    One forward sweep over time-major rows builds f_hat and folds the strict
    prefix Atil_j and the Ito prefix into their per-path sums as it goes.
    log phi is formed whole only to take its one-step ratios psi_step, and
    is released before the sweep. With a workspace ``ws`` the whole arrays
    are its slots tmp0 (log phi), psi, sqrt_z and f_hat.
    """
    grid = batch.grid
    dt = grid.dt
    w = grid.trapezoid_weights
    w_sq = w**2
    n = grid.n_steps

    q = q_constant(params)
    log_phi = _time_major(log_phi_nodes(batch, q, ws))
    psi_step = np.subtract(log_phi[1:], log_phi[:-1],
                           out=take(ws, "psi", (n, log_phi.shape[1])))
    del log_phi
    np.exp(psi_step, out=psi_step)

    z = _time_major(batch.states)
    dW = _time_major(batch.dW)
    sqrt_z = np.sqrt(z, out=take(ws, "sqrt_z", z.shape))
    P = z.shape[1]
    f_hat = take(ws, "f_hat", z.shape)
    f_hat[0] = 0.0
    a_excl = np.zeros(P)  # strict prefix Atil_j, pairs with the diagonal term of I
    p_hat = np.zeros(P)   # P(t_j) phi(t_j)
    i_cross = np.zeros(P)  # sum_j w_j sqrt(Z_j) Atil_j
    i_diag = np.zeros(P)   # sum_j w_j^2 Z_j Fhat_j
    ito = np.zeros(P)      # sum_j w_j sqrt(Z_j) P(t_j) phi(t_j)
    tmp = np.empty(P)
    for j in range(n + 1):
        # node j: every running row holds its value at t_j
        wsz = w[j] * sqrt_z[j]
        i_cross += np.multiply(wsz, a_excl, out=tmp)
        ito += np.multiply(wsz, p_hat, out=tmp)
        np.multiply(w_sq[j], z[j], out=tmp)
        tmp *= f_hat[j]
        i_diag += tmp
        if j == n:
            break
        s = psi_step[j]
        a_excl += np.multiply(wsz, f_hat[j], out=tmp)
        a_excl *= s
        p_hat += dW[j]
        p_hat *= s
        np.add(f_hat[j], 0.5 * dt, out=tmp)
        tmp *= s * s
        np.add(tmp, 0.5 * dt, out=f_hat[j + 1])

    return CIRKernelBatch(q=q, psi_step=psi_step.T, f_hat=f_hat.T, ito_psi_prefix=ito,
                          I=2.0 * i_cross + i_diag)


def skorokhod_weight_cir(batch, params, kernel=None, ws=None):
    """Per-path Skorokhod weight delta = A - B - C2 + C3 (see module docstring).

    A forward sweep over time-major rows builds abar (kept whole, it becomes
    rho) and reduces W2 into C2; one backward sweep carries Jhat, the suffix
    trapezoids of sqrt(Z) rho and Jhat^2, and S1..S3 as running rows and
    reduces them into C3. With a workspace ``ws`` the kernel takes its
    arrays from it, and sqrt(Z), Z^{-3/2} and abar are its slots sqrt_z,
    tmp0 and dW: only the kernel reads the batch's dW, so it is spent here.
    """
    if kernel is None:
        kernel = cir_kernel(batch, params, ws)
    grid = batch.grid
    h = 0.5 * grid.dt
    w = grid.trapezoid_weights
    n = grid.n_steps
    T, k = params.T, params.k
    q = kernel.q
    psi = _time_major(kernel.psi_step)
    f_hat = _time_major(kernel.f_hat)

    z = _time_major(batch.states)
    sqrt_z = np.sqrt(z, out=take(ws, "sqrt_z", z.shape))
    z_m32 = np.power(z, -1.5, out=take(ws, "tmp0", z.shape))
    P = z.shape[1]

    # forward psi-shifted closed trapezoids: abar whole, W2 reduced into C2
    abar = take(ws, "dW", z.shape)
    abar[0] = 0.0
    w2 = np.zeros(P)
    c2 = np.zeros(P)
    ha_prev = h * (sqrt_z[0] * f_hat[0])
    hw_prev = h * (z_m32[0] * f_hat[0])
    for j in range(n):
        s = psi[j]
        ha = h * (sqrt_z[j + 1] * f_hat[j + 1])
        hw = h * (z_m32[j + 1] * f_hat[j + 1])
        row = abar[j + 1]
        np.add(abar[j], ha_prev, out=row)
        row *= s
        row += ha
        w2 += hw_prev
        w2 *= s
        w2 += hw
        c2 += w[j + 1] * sqrt_z[j + 1] * w2
        ha_prev, hw_prev = ha, hw

    # backward sweep: on entry to step j the running rows hold node j+1
    rho = abar  # completed in place, row by row, as Jhat becomes known
    j_hat = np.zeros(P)
    hsz_next = h * sqrt_z[n]
    sums = np.zeros((2, P))  # suffix trapezoids of sqrt(Z) rho and Jhat^2
    y, y_next = np.empty((2, P)), np.zeros((2, P))  # their integrands
    np.multiply(sqrt_z[n], rho[n], out=y_next[0])
    s_run = np.zeros((3, P))  # S1, S2, S3
    hu, hu_next = np.empty((3, P)), np.zeros((3, P))  # h times their integrands
    np.multiply(rho[n], h, out=hu_next[0])
    c3 = np.zeros(P)
    two_q = 2.0 * q
    for j in range(n - 1, -1, -1):
        s = psi[j]
        hsz = h * sqrt_z[j]
        j_hat += hsz_next
        j_hat *= s
        j_hat += hsz
        rho[j] += f_hat[j] * j_hat
        np.multiply(sqrt_z[j], rho[j], out=y[0])
        np.multiply(j_hat, j_hat, out=y[1])
        sums += (y + y_next) * h
        np.multiply(rho[j], h, out=hu[0])
        np.multiply(z_m32[j], sums, out=hu[1:])
        hu[1:] *= h
        s_run += hu_next
        s_run *= s
        s_run += hu
        c3 += w[j] * j_hat * (s_run[0] + two_q * (s_run[1] - s_run[2]))
        y, y_next = y_next, y
        hu, hu_next = hu_next, hu
        hsz_next = hsz

    I = kernel.I
    term_ito = (T / k) * kernel.ito_psi_prefix / I
    term_trace = 0.5 * T * np.einsum("jp,j->p", f_hat, w) / I
    term_dphi = q * T * c2 / I
    term_denom = T * c3 / I**2
    return CIRWeightBatch(delta=term_ito - term_trace - term_dphi + term_denom,
                          term_ito=term_ito, term_trace=term_trace,
                          term_dphi=term_dphi, term_denom=term_denom, denominator=I)
