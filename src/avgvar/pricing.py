"""European call pricing: conditional Black-Scholes and three estimators.

Because the asset driver is independent of the volatility driver, the call
price conditional on a volatility trajectory is the Black-Scholes price at
the trajectory's averaged volatility sig_bar:

    E(sig_bar) = s0 e^{rT} Phi(d1) - K Phi(d2),
    d1 = (ln s0 - ln K + (r + sig_bar^2/2) T) / (sig_bar sqrt(T)),
    d2 = d1 - sig_bar sqrt(T),

with the sig_bar -> 0 limit (s0 e^{rT} - K)^+ taken by continuity. In the
money it is evaluated by put-call parity as s0 e^{rT} - K plus the put
K Phi(-d2) - s0 e^{rT} Phi(-d1), so that the rounding of two Phi values
near 1 never swamps the vega. Three
estimators of the unconditional price must agree:

  * mixing:    discounted average of E(sig_bar) over simulated trajectories,
  * density quadrature: integrate the conditional price against the
    Malliavin density estimate of the averaged variance, exactly, from the
    weighted samples rather than from a density grid, less three
    integration-by-parts control variates,
  * plain MC:  discounted average payoff of simulated terminal prices.

Each estimate is a sample mean with its standard error and 95% interval,
all built by ``mc_estimate``, the package's one such estimator.

Phi is evaluated elementwise through the standard library's complementary
error function (absolute error below 1e-15). ``_phi`` is a module attribute
on purpose: the self-check battery's fault-injection test monkeypatches it
to verify the monotonicity guard actually bites.
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import ibp_controls, mean_and_se, subtract_controls
from .errors import EmptyEnsemble

TABLE_NODES = 1025  # nodes of the payoff_integral table over [min F, max F]
_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _phi(x):
    """Standard normal CDF via erfc (monkeypatchable for fault injection)."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / _SQRT2), dtype=float)


@dataclass
class PriceEstimate:
    method: str       # density_quadrature | mixing_mc | plain_mc | martingale_check | mean
    value: float      # an (m,) array for an (N, m) array of terms, as is std_error
    std_error: float  # 0 for a single or constant sample
    ci95: tuple

    def overlaps(self, other):
        """True when the 95% intervals of two estimates intersect."""
        return self.ci95[0] <= other.ci95[1] and other.ci95[0] <= self.ci95[1]


def bs_conditional(sigma_bar, strike, s0, r, T):
    """Discounted conditional Black-Scholes call value e^{-rT} E(sig_bar).
    Vectorized in sigma_bar; sigma_bar = 0 and K = 0 handled by their limits.

    E(sig_bar) is the intrinsic value (s0 e^{rT} - K)^+ plus the
    out-of-the-money option (the call, or in the money the put), taken from
    the Phi tails and floored at 0. The value is therefore never below the
    no-arbitrage bound, and it does not decrease in sigma_bar where the
    option value is resolved in float64.
    """
    sig = np.asarray(sigma_bar, dtype=float)
    scalar = sig.ndim == 0
    sig = np.atleast_1d(sig)
    fwd = s0 * math.exp(r * T)

    inner = np.empty_like(sig)
    total = sig * math.sqrt(T)
    live = total > 0
    if strike <= 0:
        inner[:] = fwd
    else:
        intrinsic = max(fwd - strike, 0.0)
        inner[~live] = intrinsic
        if np.any(live):
            tl = total[live]
            # subnormal total vol may overflow d to +-inf; Phi saturates to
            # the correct 0/1 limit, so the result is still the right one
            with np.errstate(over="ignore"):
                d1 = (math.log(s0 / strike) + r * T) / tl + 0.5 * tl
                d2 = d1 - tl
            if fwd > strike:
                otm = strike * _phi(-d2) - fwd * _phi(-d1)
            else:
                otm = fwd * _phi(d1) - strike * _phi(d2)
            # deep out of the money the difference can round below 0
            inner[live] = intrinsic + np.maximum(otm, 0.0)
    disc = math.exp(-r * T) * inner
    return float(disc[0]) if scalar else disc


def mc_estimate(terms, method="mean", empty_message="no sample to average"):
    """The mean over axis 0 of ``terms`` with its standard error (by
    ``density.mean_and_se``) and 95% interval, as floats for a vector and
    (m,) arrays for (N, m) terms; EmptyEnsemble(``empty_message``) if N = 0."""
    terms = np.atleast_1d(terms)
    if terms.shape[0] == 0:
        raise EmptyEnsemble(empty_message)
    value, se = mean_and_se(terms)
    if terms.ndim == 1:
        value, se = float(value), float(se)
    return PriceEstimate(method=method, value=value, std_error=se,
                         ci95=(value - 1.96 * se, value + 1.96 * se))


def price_mixing(sigma_bar_samples, strike, s0, r, T):
    """Mixing estimator: discounted mean of the conditional prices."""
    return mc_estimate(bs_conditional(sigma_bar_samples, strike, s0, r, T), "mixing_mc",
                       "mixing pricer needs at least one sigma_bar sample")


def payoff_integral(samples, strike, s0, r, T, nodes=TABLE_NODES):
    """G(F) = the integral from min F to F of the discounted conditional
    price at sig_bar = sqrt(x), for each sample F.

    G is tabulated on ``nodes`` uniform nodes over [min F, max F] by the
    cumulative trapezoid rule with its end correction -h^2/12 (f'(b) -
    f'(a)), f' taken by second-order differences, and read between nodes by
    the cubic Hermite interpolant of G and G' = f. Both steps are fourth
    order in the node spacing h.
    """
    f = np.asarray(samples, dtype=float)
    lo, hi = float(f.min()), float(f.max())
    h = (hi - lo) / (nodes - 1)
    if not h > 0:
        return np.zeros_like(f)
    u = np.linspace(lo, hi, nodes)
    pay = bs_conditional(np.sqrt(np.maximum(u, 0.0)), strike, s0, r, T)
    slope = np.gradient(pay, h, edge_order=2)
    table = np.zeros(nodes)
    np.cumsum(0.5 * h * (pay[1:] + pay[:-1]) - h * h / 12.0 * np.diff(slope), out=table[1:])

    s = (f - lo) / h
    k = np.minimum(s.astype(np.intp), nodes - 2)
    t = s - k
    t1 = t - 1.0
    # cubic Hermite basis on [u_k, u_k+1] at t, times the values and slopes
    return (t1 * t1 * ((1.0 + 2.0 * t) * table[k] + t * h * pay[k])
            + t * t * ((3.0 - 2.0 * t) * table[k + 1] + t1 * h * pay[k + 1]))


def price_from_density(samples, weights, strike, s0, r, T, nodes=TABLE_NODES):
    """The integral of the discounted conditional price against the
    Malliavin density estimate p_hat(x) = mean_i 1{F_i > x} w_i of the
    weighted ensemble (``samples`` F, ``weights`` w), over every x: no
    density grid is built or read.

    With G' the conditional price (``payoff_integral``, on ``nodes``
    nodes), the integral is the sample mean of the per-path terms
    w_i G(F_i), which gives its exact standard error. The weight is the
    exact divergence for F_n, so the controls of ``density.ibp_controls``
    have mean zero. Their in-sample least-squares fit is subtracted from the
    terms (``density.subtract_controls``): the mean moves by O(1/N) at most
    and the SE falls 150-fold (OU) and 600-fold (CIR) on the demo models.
    The w control also makes the estimate blind to G's lower limit, since
    shifting G by a constant moves each term by a multiple of w.
    """
    f = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if f.size == 0:
        raise EmptyEnsemble("density quadrature needs at least one weighted sample")
    terms = subtract_controls(w * payoff_integral(f, strike, s0, r, T, nodes),
                              ibp_controls(f, w))
    return mc_estimate(terms, "density_quadrature")


def price_plain_mc(terminal_prices, strike, r, T):
    """Plain Monte Carlo: discounted mean of (S_T - K)^+."""
    s_t = np.asarray(terminal_prices, dtype=float)
    return mc_estimate(math.exp(-r * T) * np.maximum(s_t - strike, 0.0), "plain_mc",
                       "plain MC pricer needs at least one terminal price")


def martingale_check(terminal_prices, s0, r, T):
    """Mean of e^{-rT} S_T with its SE; it must sit within noise of s0."""
    s_t = np.asarray(terminal_prices, dtype=float)
    return mc_estimate(math.exp(-r * T) * s_t, "martingale_check",
                       "martingale check needs at least one terminal price")
