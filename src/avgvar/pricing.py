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
    Malliavin density of the averaged variance,
  * plain MC:  discounted average payoff of simulated terminal prices.

Phi is evaluated elementwise through the standard library's complementary
error function (absolute error below 1e-15). ``_phi`` is a module attribute
on purpose: the self-check battery's fault-injection test monkeypatches it
to verify the monotonicity guard actually bites.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, GridTooCoarse, NegativeMassWarning

_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _phi(x):
    """Standard normal CDF via erfc (monkeypatchable for fault injection)."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / _SQRT2), dtype=float)


@dataclass
class PriceEstimate:
    method: str       # density_quadrature | mixing_mc | plain_mc
    value: float
    std_error: float  # 0 for deterministic quadrature of a fixed density
    ci95: tuple

    def overlaps(self, other):
        """True when the 95% intervals of two estimates intersect."""
        return self.ci95[0] <= other.ci95[1] and other.ci95[0] <= self.ci95[1]


def bs_conditional(sigma_bar, strike, s0, r, T):
    """Conditional Black-Scholes call value.

    Returns (inner, discounted): ``inner`` is the undiscounted conditional
    expectation E(sig_bar), ``discounted`` is e^{-rT} inner. Vectorized in
    sigma_bar; sigma_bar = 0 and K = 0 handled by their limits.

    ``inner`` is the intrinsic value (s0 e^{rT} - K)^+ plus the
    out-of-the-money option (the call, or in the money the put), taken from
    the Phi tails and floored at 0. It is therefore never below the
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
    if scalar:
        return float(inner[0]), float(disc[0])
    return inner, disc


def _mc_estimate(method, terms, empty_message):
    """The sample mean of ``terms`` with its standard error and 95% interval;
    raises EmptyEnsemble with ``empty_message`` when there is no term."""
    terms = np.atleast_1d(terms)
    if terms.size == 0:
        raise EmptyEnsemble(empty_message)
    if terms.size == 1 or terms.min() == terms.max():
        # a single term or a constant sample is its own mean, with no spread;
        # the pairwise sum of equal values rounds unless their low bits are 0
        value, se = float(terms[0]), 0.0
    else:
        value = float(np.mean(terms))
        se = float(terms.std(ddof=1) / math.sqrt(terms.size))
    return PriceEstimate(method=method, value=value, std_error=se,
                         ci95=(value - 1.96 * se, value + 1.96 * se))


def price_mixing(sigma_bar_samples, strike, s0, r, T):
    """Mixing estimator: discounted mean of the conditional prices."""
    _, disc = bs_conditional(sigma_bar_samples, strike, s0, r, T)
    return _mc_estimate("mixing_mc", disc,
                        "mixing pricer needs at least one sigma_bar sample")


def price_from_density(density, strike, s0, r, T, min_mass=0.9,
                       samples=None, weights=None):
    """Quadrature of the conditional price against a density of averaged variance.

    The integrand at grid point x uses sig_bar = sqrt(x). When the ensemble
    behind a Malliavin density is passed in (``samples``, ``weights``), the
    quadrature is evaluated in its per-path form: it is algebraically a
    sample mean of terms w_i * Q(F_i) with Q the payoff-weighted measure of
    the grid below F_i. That form gives the exact standard error and admits
    a free variance reduction: the weights have zero expectation, so
    subtracting beta * w_i with the regression coefficient
    beta = Cov(term, w) / Var(w) leaves the estimator's mean untouched
    (up to O(1/N) from estimating beta) while shrinking its noise several
    fold. Without the ensemble the SE falls back to propagating the
    per-point density SEs as if independent, which understates it
    (neighbouring grid points share every path).
    """
    x = np.asarray(density.x_grid, dtype=float)
    if x.size < 21:
        raise GridTooCoarse(f"density grid has {x.size} points; need >= 21")
    if density.normalization < min_mass:
        warnings.warn(
            f"density mass {density.normalization:.3f} < {min_mass}; "
            "estimate too noisy to price from", NegativeMassWarning)
    _, payoff = bs_conditional(np.sqrt(np.maximum(x, 0.0)), strike, s0, r, T)

    # trapezoid weights on the x grid
    wq = np.empty_like(x)
    wq[1:-1] = 0.5 * (x[2:] - x[:-2])
    wq[0] = 0.5 * (x[1] - x[0])
    wq[-1] = 0.5 * (x[-1] - x[-2])

    if samples is not None and weights is not None:
        f = np.asarray(samples, dtype=float)
        w = np.asarray(weights, dtype=float)
        terms = w * np.einsum("px,x->p", f[:, None] > x[None, :], wq * payoff)
        w_c = w - w.mean()
        ss_w = float(np.sum(w_c * w_c))
        if terms.size > 1 and ss_w > 0:
            beta = float(np.sum((terms - terms.mean()) * w_c)) / ss_w
            terms = terms - beta * w
        return _mc_estimate("density_quadrature", terms,
                            "density quadrature needs at least one weighted sample")
    value = float(np.sum(wq * payoff * density.p_hat))
    se = float(np.sqrt(np.sum((wq * payoff * density.se) ** 2)))
    return PriceEstimate(method="density_quadrature", value=value, std_error=se,
                         ci95=(value - 1.96 * se, value + 1.96 * se))


def price_plain_mc(terminal_prices, strike, r, T):
    """Plain Monte Carlo: discounted mean of (S_T - K)^+."""
    s_t = np.asarray(terminal_prices, dtype=float)
    return _mc_estimate("plain_mc", math.exp(-r * T) * np.maximum(s_t - strike, 0.0),
                        "plain MC pricer needs at least one terminal price")


def martingale_check(terminal_prices, s0, r, T):
    """Summary of e^{-rT} S_T; its mean must sit within noise of s0."""
    s_t = np.asarray(terminal_prices, dtype=float)
    return _mc_estimate("martingale_check", math.exp(-r * T) * s_t,
                        "martingale check needs at least one terminal price")
