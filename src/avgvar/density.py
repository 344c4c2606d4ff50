"""Density estimators for the averaged variance.

Two independent routes to the same density:

  * ``malliavin_density`` -- the weight representation
    p(x) = E[1{F > x} delta], realized as a Monte Carlo average of the
    per-path Skorokhod weights. Signed terms, unbiased, no bandwidth.
  * ``kde_density`` -- a plain Gaussian kernel density estimate of the F
    samples with Silverman bandwidth 1.06 sigma N^(-1/5). Biased at
    O(h^2) but an assumption-light cross-check.

Agreement of the two within combined error bars is one of the package's
acceptance gates. Both are sample means of per-path terms, one column per
grid point, and take their values and standard errors from ``mean_and_se``,
the core of the package's one Monte Carlo estimator ``pricing.mc_estimate``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, GridTooCoarse, TooFewSamples

MIN_GRID_POINTS = 21
KDE_MIN_SAMPLES = 100
SILVERMAN_FACTOR = 1.06  # KDE bandwidth 1.06 sigma N^(-1/5)


@dataclass
class DensityEstimate:
    x_grid: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    normalization: float  # trapezoid mass over the grid
    method: str           # "malliavin" | "kde"


def auto_grid(samples, points=41, lower_bound=None):
    """Default x-grid: max(lower_bound, half the 1st percentile) up to 1.2x
    the 99th percentile of the samples."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise EmptyEnsemble("cannot build a grid from zero samples")
    if points < MIN_GRID_POINTS:
        raise GridTooCoarse(f"density grid needs >= {MIN_GRID_POINTS} points, got {points}")
    lo = 0.5 * np.percentile(samples, 1.0)
    if lower_bound is not None:
        lo = max(lo, lower_bound)
    hi = 1.2 * np.percentile(samples, 99.0)
    if not hi > lo:
        hi = lo + max(abs(lo), 1e-8)
    return np.linspace(lo, hi, int(points))


def mean_and_se(terms):
    """Means over axis 0 of the per-path ``terms`` and their standard errors
    std(ddof=1) / sqrt(N). A single row or a constant column is its own mean,
    with SE 0: the sum of equal values rounds unless their low bits are 0."""
    n = terms.shape[0]
    constant = terms.min(axis=0) == terms.max(axis=0)
    first = terms[0] + 0.0  # a copy, with -0.0 (0 times a negative weight) read as 0.0
    if n == 1 or np.all(constant):
        return first, np.zeros(terms.shape[1:])
    return (np.where(constant, first, terms.mean(axis=0)),
            np.where(constant, 0.0, terms.std(axis=0, ddof=1) / np.sqrt(n)))


def malliavin_density(avg_variance, weights, x_grid):
    """p_hat(x) = mean_i 1{F_i > x} w_i with per-path standard errors.

    The indicator is strict, matching the representation's tail form; ties
    have probability zero for continuous F.
    """
    f = np.asarray(avg_variance, dtype=float)
    w = np.asarray(weights, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    if f.size == 0:
        raise EmptyEnsemble("no samples")
    if x.size < MIN_GRID_POINTS:
        raise GridTooCoarse(f"density grid needs >= {MIN_GRID_POINTS} points, got {x.size}")

    p_hat, se = mean_and_se((f[:, None] > x[None, :]) * w[:, None])
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=float(np.trapezoid(p_hat, x)), method="malliavin")


def kde_bandwidth(samples):
    """The KDE's bandwidth 1.06 sigma N^(-1/5), or a narrow fixed one for a
    sample without spread."""
    s = np.asarray(samples, dtype=float)
    h = SILVERMAN_FACTOR * s.std(ddof=1) * s.size**-0.2
    return h if h > 0 else 1e-3 * max(abs(float(s[0])), 1.0)


def kde_density(samples, x_grid):
    """Gaussian KDE on the grid with Silverman bandwidth and per-path SEs.

    A degenerate sample (zero spread) falls back to a narrow fixed
    bandwidth so the estimate is a unit-mass spike at the common value.
    """
    s = np.asarray(samples, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    if s.size < KDE_MIN_SAMPLES:
        raise TooFewSamples(f"KDE needs >= {KDE_MIN_SAMPLES} samples, got {s.size}")
    h = kde_bandwidth(s)

    # built in place, so that the kernel matrix is the one (N, n_grid) array
    kmat = np.subtract(x[None, :], s[:, None])
    kmat /= h
    kmat *= kmat
    kmat *= -0.5
    np.exp(kmat, out=kmat)
    kmat *= 1.0 / (h * np.sqrt(2.0 * np.pi))
    p_hat, se = mean_and_se(kmat)
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=float(np.trapezoid(p_hat, x)), method="kde")


def winsorize_weights(weights, quantile=1e-4):
    """Clip weights to their [q, 1-q] empirical quantiles (optional guard).

    The theory guarantees finite second moments, not small ones; this is a
    variance safeguard, off by default everywhere.
    """
    w = np.asarray(weights, dtype=float)
    finite = w[np.isfinite(w)]
    if finite.size == 0:
        return w
    lo, hi = np.quantile(finite, [quantile, 1.0 - quantile])
    return np.clip(w, lo, hi)
