"""Skorokhod density weights for the OU-driven volatility model.

For F = averaged variance (1/T) int_0^T sigma^2(Y_s) ds, the density of F
is E[1{F > x} delta] where delta is the Skorokhod integral of DF/||DF||^2.
Writing nu = sigma * sigma', the weight evaluates per path as

    delta = int_0^T eta_t (int_0^t e^{a h} dW_h) dt
          - int_0^T int_0^t e^{a h} D_h eta_t dh dt,

    eta_t = (a T / k) e^{-a t} nu(Y_t) / G,

    G = int_0^T int_0^T K(t1, t2) nu(Y_t1) nu(Y_t2) dt1 dt2,
    K(t1, t2) = e^{-a|t1-t2|} - e^{-a(t1+t2)},

and the stochastic derivative of eta is, by the chain rule with
D_h Y_t = k e^{-a(t-h)} 1{h<t},

    D_h eta_t = a T e^{-a t} [ e^{-a(t-h)} 1{h<t} nu'(Y_t) / G
                                - nu(Y_t) 2 e^{a h} C(h) / G^2 ],

    C(h) = int_0^T int_h^T K(t1,t2) nu(Y_t1) e^{-a t2} nu'(Y_t2) dt2 dt1

(the two symmetric correction terms of the raw chain-rule expression
collapse into 2 e^{a h} C(h) because K is symmetric). The factor k of
D_h Y_t cancels the 1/k in eta. K is the covariance kernel (times 2a) of an
OU process started at 0, hence positive semidefinite: G > 0 on every path
with nu > 0.

The quadratures are those of the brute-force double sums in ``reference``:
trapezoid dt-integrals over all nodes, left-point dW-integrals (strict
i < j), indicator integrals masked to the strict index range, and inner
dh-integrals over [0, t] by the trapezoid on the truncated node range.

Per path they reduce to running sums along the node axis. With the
trapezoid weights w, wf = w nu, E = e^{-a t}, A = e^{a t} and q = e^{2 a t}:

  * one strict suffix, v_j = sum_{i>j} wf_i E_i, kept as Av = A v;
  * one prefix, kappa_j = sum_i K(t_i, t_j) wf_i
                        = E_j (sum_{i<=j} wf_i A_i - s_sep) + Av_j,
    with s_sep = sum_i wf_i E_i, and then G = sum_j wf_j kappa_j;
  * the Ito term by Abel summation: sum_j wf_j E_j sum_{i<j} A_i dW_i
    = sum_i dW_i Av_i, so term_ito = (a T / k) / G * sum_i dW_i Av_i;
  * the trace term. Swapping the inner dh-trapezoid and the C(h) suffix
    with the outer sum over t gives trace2 = sum_j s_j Q_j, where
    s_j = w_j E_j nu'_j kappa_j, Q_j = sum_{l<j} q_l beta_l, and beta_l is
    the inner-trapezoid mass dt E_l (Av_l + wf_l / 2) for l >= 1 and
    dt v_0 / 2 for l = 0. With the deterministic R1_i, the [0, t_i]
    trapezoid of e^{2 a h} with its top node zeroed by the strict
    indicator, trace1 = sum_i nu'_i w_i E_i^2 R1_i and

        term_trace = a T (trace1 / G - 2 trace2 / G^2).

Q is a prefix sum of nonnegative terms, and neither C(h) nor the trapezoid
of e^{2 a h} C(h) is formed. C(h) as a total minus a prefix, scaled by
e^{2 a h}, lost most of its digits at large alpha (10% of the trace term at
alpha = 100, n = 64).

nu and nu' at the nodes come with the path batch (``batch.nu`` and
``batch.nu_prime``): the simulator evaluates sigma, sigma' and sigma'' in
one pass and reduces them at once, so this module never calls the
volatility function.

Unlike the CIR kernel (whose exponent grows with the random path and is
therefore kept in ratio form), the exponentials here are the deterministic
e^{+-a t} and e^{2 a t}: they stay in float64 range for a T up to ~350.
Beyond that the weights come out nonfinite, and the ensemble fails those
paths and aborts loudly rather than returning garbage.

This module decides no failure: a path with G <= 0 gets whatever the
division gives, and ``run_ensemble`` alone flags the path and sets its
weight to NaN.
"""

from dataclasses import dataclass

import numpy as np

from .workspace import take


@dataclass
class OUWeightBatch:
    """Per-path weights with their diagnostic components.

    delta = term_ito - term_trace holds exactly by construction.
    ``denominator`` is G.
    """

    delta: np.ndarray       # (P,)
    term_ito: np.ndarray    # (P,)
    term_trace: np.ndarray  # (P,)
    denominator: np.ndarray # (P,) G


def skorokhod_weight_ou(batch, params, ws=None):
    """Compute the per-path Skorokhod weight for a batch of OU paths.

    Every term comes from the running sums of the module docstring, built
    in place in three (P, n+1) buffers: wf (later q beta and Q), Av, and
    kappa (later s). With a workspace ``ws`` they are its slots tmp0, tmp1
    and tmp2.
    """
    alpha, k = params.alpha, params.k
    grid = batch.grid
    w = grid.trapezoid_weights
    t = grid.t
    dt = grid.dt
    E = np.exp(-alpha * t)
    A = np.exp(alpha * t)
    g = batch.nu_prime

    shape = batch.nu.shape
    wf = np.multiply(w, batch.nu, out=take(ws, "tmp0", shape))
    s_sep = np.einsum("pj,j->p", wf, E)
    # av[:, j] = wf_{j+1} E_{j+1}, so the reversed in-place cumsum reads each
    # element before it writes it and yields the strict suffix v
    av = take(ws, "tmp1", shape)
    np.multiply(wf[:, 1:], E[1:], out=av[:, :-1])
    av[:, -1] = 0.0
    np.cumsum(av[:, ::-1], axis=1, out=av[:, ::-1])
    av *= A  # column 0 is v_0 itself, as A_0 = 1
    ito_sum = np.einsum("pi,pi->p", batch.dW, av[:, :-1])

    kappa = np.multiply(wf, A, out=take(ws, "tmp2", shape))
    np.cumsum(kappa, axis=1, out=kappa)
    kappa -= s_sep[:, None]
    kappa *= E
    kappa += av
    G = np.einsum("pj,pj->p", wf, kappa)

    # q_l beta_l = dt A_l (Av_l + wf_l / 2) for l >= 1, as q_l E_l = A_l,
    # and dt v_0 / 2 at l = 0; its inclusive prefix in place, so column
    # j - 1 holds Q_j
    wf *= 0.5
    wf += av
    wf *= dt * A
    wf[:, 0] = 0.5 * dt * av[:, 0]
    del av
    np.cumsum(wf, axis=1, out=wf)
    kappa *= g
    kappa *= w * E  # s
    trace2 = np.einsum("pj,pj->p", kappa[:, 1:], wf[:, :-1])
    del wf, kappa

    # interior prefix sums of q over l = 1 .. i-1
    q = np.exp(2.0 * alpha * t)
    cum_q = np.zeros_like(t)
    np.cumsum(q[1:-1], out=cum_q[2:])
    r1 = np.zeros_like(t)
    r1[1:] = 0.5 * dt + dt * cum_q[1:]
    trace1 = np.einsum("pj,j->p", g, w * E * E * r1)

    scale = alpha * grid.T  # k of D_h Y cancels the 1/k of eta
    term_ito = (scale / k) * ito_sum / G
    term_trace = scale * (trace1 / G - 2.0 * trace2 / G**2)
    return OUWeightBatch(delta=term_ito - term_trace, term_ito=term_ito,
                         term_trace=term_trace, denominator=G)
