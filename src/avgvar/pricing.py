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
near 1 never swamps the vega. Three estimators of the unconditional price
must agree:

  * mixing:    discounted average of E(sig_bar) over simulated trajectories,
  * density quadrature: integrate the conditional price against the
    Malliavin density estimate of the averaged variance, exactly, from the
    weighted samples and the price's closed-form antiderivative, less
    three integration-by-parts control variates,
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

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
NEAR_MEAN = 1e-3  # relative distance to the mean sample within which G is a 3-point rule
_GAUSS_3 = tuple(zip(0.5 + 0.5 * math.sqrt(0.6) * np.array([-1, 0, 1]), (5 / 18, 8 / 18, 5 / 18)))


def _phi(x):
    """Standard normal CDF via erfc (monkeypatchable for fault injection)."""
    y = -np.asarray(x, dtype=float) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, y.ravel().tolist()), float, y.size).reshape(y.shape)


@dataclass
class PriceEstimate:
    method: str       # density_quadrature | mixing_mc | plain_mc | martingale_check | mean
    value: float      # an (m,) array for an (N, m) array of terms, as is std_error
    std_error: float  # 0 for a single or constant sample
    ci95: tuple


def _black_scholes(total, strike, s0, r, T):
    """The undiscounted conditional call at total volatilities ``total`` =
    sig_bar sqrt(T) (a 1-D array), and its antiderivative in v = total^2,
    A(v) = v (fwd - K)^+ + (v - 4) c + 2 m t + 4 fwd sqrt(v) phi(d1) with
    A(0) = 0: fwd = s0 e^{rT}, m = ln(fwd / K), c the out-of-the-money
    option and t = fwd Phi(d1) + K Phi(d2), or in the money
    -(fwd Phi(-d1) + K Phi(-d2)), from the same two Phi values. At K = 0
    they are fwd and fwd v."""
    fwd = s0 * math.exp(r * T)
    var = total * total
    # below s0 / 1.8e308 a strike is 0 to float64, and ln(s0 / K) overflows
    if strike <= 0 or s0 / strike == math.inf:
        return np.full_like(total, fwd), fwd * var
    intrinsic = max(fwd - strike, 0.0)
    call = np.full_like(total, intrinsic)
    integral = intrinsic * var
    live = total > 0
    if np.any(live):
        tl = total[live]
        m = math.log(s0 / strike) + r * T
        # subnormal total vol may overflow d to +-inf; Phi saturates to
        # the correct 0/1 limit and phi to 0, so the results are still right
        with np.errstate(over="ignore"):
            d1 = m / tl + 0.5 * tl
            d2 = d1 - tl
            density = np.exp(-0.5 * d1 * d1)
        if fwd > strike:
            p1, p2 = _phi(-d1), _phi(-d2)
            otm, tails = strike * p2 - fwd * p1, -(fwd * p1 + strike * p2)
        else:
            p1, p2 = _phi(d1), _phi(d2)
            otm, tails = fwd * p1 - strike * p2, fwd * p1 + strike * p2
        # deep out of the money the difference can round below 0
        otm = np.maximum(otm, 0.0)
        call[live] += otm
        integral[live] += ((var[live] - 4.0) * otm + 2.0 * m * tails
                           + 4.0 * _INV_SQRT_2PI * fwd * tl * density)
    return call, integral


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
    call, _ = _black_scholes(np.atleast_1d(sig) * math.sqrt(T), strike, s0, r, T)
    disc = math.exp(-r * T) * call
    return float(disc[0]) if sig.ndim == 0 else disc


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


def payoff_integral(samples, strike, s0, r, T):
    """G(F) = the integral from m, the mean sample, to F of the discounted
    conditional price at sig_bar = sqrt(x): e^{-rT} (A(F T) - A(m T)) / T,
    A the closed form of ``_black_scholes``. A rounds to about 1e-16 of
    4 s0 e^{rT} however close F is to m, which a weight of order 1e9
    (k -> 0) would multiply; so within ``NEAR_MEAN`` of m, G is the 3-point
    Gauss-Legendre rule over [m, F], exact there to its rounding."""
    v = np.asarray(samples, dtype=float) * T
    v0 = float(np.mean(v))
    integral = _black_scholes(np.sqrt(np.append(v, v0)), strike, s0, r, T)[1]
    g = integral[:-1] - integral[-1]
    near = np.abs(v - v0) <= NEAR_MEAN * v0
    if np.any(near):
        step = v[near] - v0
        g[near] = sum(wt * step * _black_scholes(np.sqrt(v0 + x * step), strike, s0, r, T)[0]
                      for x, wt in _GAUSS_3)
    return math.exp(-r * T) / T * g


def price_from_density(samples, weights, strike, s0, r, T):
    """The integral of the discounted conditional price against the
    Malliavin density estimate p_hat(x) = mean_i 1{F_i > x} w_i of the
    weighted ensemble (``samples`` F, ``weights`` w), over every x, with no
    density grid: the sample mean of the per-path terms w_i G(F_i), G' the
    conditional price (``payoff_integral``), which gives its exact SE.
    The weight is the exact divergence for F_n, so the controls of
    ``density.ibp_controls`` have mean zero; their in-sample least-squares
    fit is subtracted from the terms (``density.subtract_controls``): the
    mean moves by O(1/N) at most and the SE falls 150-fold (OU) and
    600-fold (CIR) on the demo models. The w control also makes the
    estimate blind to G's lower limit.
    """
    f = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if f.size == 0:
        raise EmptyEnsemble("density quadrature needs at least one weighted sample")
    terms = subtract_controls(w * payoff_integral(f, strike, s0, r, T), ibp_controls(f, w))
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
