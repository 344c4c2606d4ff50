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
``ibp_controls`` and ``subtract_controls`` hold the integration-by-parts
control variates that the density-quadrature price subtracts from its terms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, GridTooCoarse, TooFewSamples

MIN_GRID_POINTS = 21
AUTO_GRID_POINTS = 41
KDE_MIN_SAMPLES = 100
SILVERMAN_FACTOR = 1.06  # KDE bandwidth 1.06 sigma N^(-1/5)
SINGULAR_DET = 1e-12  # scaled control normal equations below this are singular


@dataclass
class DensityEstimate:
    x_grid: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    normalization: float  # trapezoid mass over the grid
    method: str           # "malliavin" | "kde"


def auto_grid(samples, lower_bound=None):
    """Default x-grid: AUTO_GRID_POINTS points from max(lower_bound, half
    the 1st percentile) up to 1.2x the 99th percentile of the samples."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise EmptyEnsemble("cannot build a grid from zero samples")
    p1, p99 = quantiles(samples, [1.0 / 100, 99.0 / 100])
    lo = 0.5 * p1
    if lower_bound is not None:
        lo = max(lo, lower_bound)
    hi = 1.2 * p99
    if not hi > lo:
        hi = lo + max(abs(lo), 1e-8)
    return np.linspace(lo, hi, AUTO_GRID_POINTS)


def quantiles(values, q):
    """The quantiles ``q`` (fractions in [0, 1]) of the values, equal bit
    for bit to ``np.quantile(values, q)`` and ``np.percentile(values,
    100 q)`` with numpy's default linear method, whose steps this writes
    out. numpy sorts its partition indices with np.unique, whose first call
    imports numpy.ma (about 10 ms); this partitions at them directly."""
    a = np.asarray(values).ravel()
    n = a.size
    virtual = (n - 1) * np.asarray(q, dtype=float)
    prev = np.floor(virtual)
    after = prev + 1
    above = virtual >= n - 1
    prev[above] = after[above] = -1
    below = virtual < 0
    prev[below] = after[below] = 0
    prev, after = prev.astype(np.intp), after.astype(np.intp)
    a = np.partition(a, sorted({0, -1, *prev.tolist(), *after.tolist()}))
    if np.isnan(a[-1]):
        return np.full(virtual.shape, a[-1])
    gamma = virtual - prev
    lower, upper = a[prev], a[after]
    diff = upper - lower
    result = np.add(lower, diff * gamma)
    np.subtract(upper, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def mean_and_se(terms, paired=False):
    """Means over axis 0 of the per-path ``terms`` and their standard errors
    std(ddof=1) / sqrt(N). A single row or a constant column is its own mean,
    with SE 0: the sum of equal values rounds unless their low bits are 0.

    With ``paired``, rows 2i and 2i + 1 are an antithetic pair, and a last
    odd row stands alone. The two terms of a pair are not independent, so
    the SE is that of the mean of the M pair means, std(ddof=1) / sqrt(M)
    over them (Glasserman, Monte Carlo Methods in Financial Engineering,
    4.2); the mean is the same either way."""
    n = terms.shape[0]
    constant = terms.min(axis=0) == terms.max(axis=0)
    first = terms[0] + 0.0  # a copy, with -0.0 (0 times a negative weight) read as 0.0
    if n == 1 or np.all(constant):
        return first, np.zeros(terms.shape[1:])
    units = terms
    if paired:
        units = np.add(terms[0:n - 1:2], terms[1::2])
        units *= 0.5
        if n % 2:
            units = np.concatenate([units, terms[-1:]])
    m = units.shape[0]
    se = units.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else 0.0
    return np.where(constant, first, terms.mean(axis=0)), np.where(constant, 0.0, se)


def ibp_controls(avg_variance, weights):
    """The integration-by-parts controls w, (F - m) w - 1 and
    (F - m)^2 w - 2 (F - m), with m = mean F, as the rows of a (3, N)
    array. The weight is the exact divergence for F_n, so
    E[phi(F) w] = E[phi'(F)] and each control has mean 0. Centring on m
    conditions the fit and spans the same space as 1, F, F^2.
    """
    f = np.asarray(avg_variance, dtype=float)
    w = np.asarray(weights, dtype=float)
    c = f - f.mean()
    cw = c * w
    return np.stack([w, cw - 1.0, c * cw - 2.0 * c])


def subtract_controls(terms, controls):
    """``terms`` minus beta^T ``controls``, beta the in-sample least-squares
    fit of each column of ``terms`` (a vector or (N, m)) on the three
    zero-mean ``controls`` (3, N). The normal equations are scaled to unit
    diagonal and solved by their adjugate. A control with no spread gets
    beta = 0; if the scaled system is singular, the terms are returned as
    they are."""
    terms = np.asarray(terms, dtype=float)
    cc = controls - controls.mean(axis=1, keepdims=True)
    gram = np.einsum("ip,jp->ij", cc, cc)
    cross = np.einsum("ip,p...->i...", cc, terms)
    scale = np.sqrt(np.diagonal(gram))
    scale = np.where(scale > 0, scale, 1.0)
    corr = gram / scale[:, None] / scale[None, :]
    np.fill_diagonal(corr, 1.0)  # already 1, unless the control has no spread
    adjugate = np.stack([np.cross(corr[1], corr[2]), np.cross(corr[2], corr[0]),
                         np.cross(corr[0], corr[1])])
    det = float(np.einsum("i,i->", corr[0], adjugate[0]))
    if not det > SINGULAR_DET:
        return terms
    col = scale.reshape((3,) + (1,) * (terms.ndim - 1))
    beta = np.einsum("ij,j...->i...", adjugate, cross / col) / (det * col)
    return terms - np.einsum("ip,i...->p...", controls, beta)


def malliavin_density(avg_variance, weights, x_grid, paired=False):
    """p_hat(x) = mean_i 1{F_i > x} w_i with per-path standard errors, or
    per-pair ones for antithetic samples (``paired``, see ``mean_and_se``).

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

    p_hat, se = mean_and_se((f[:, None] > x[None, :]) * w[:, None], paired)
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=float(np.trapezoid(p_hat, x)), method="malliavin")


def kde_bandwidth(samples):
    """The KDE's bandwidth 1.06 sigma N^(-1/5), or a narrow fixed one for a
    sample without spread."""
    s = np.asarray(samples, dtype=float)
    h = SILVERMAN_FACTOR * s.std(ddof=1) * s.size**-0.2
    return h if h > 0 else 1e-3 * max(abs(float(s[0])), 1.0)


def kde_density(samples, x_grid, paired=False):
    """Gaussian KDE on the grid with Silverman bandwidth and per-path SEs,
    or per-pair ones for antithetic samples (``paired``).

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
    p_hat, se = mean_and_se(kmat, paired)
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=float(np.trapezoid(p_hat, x)), method="kde")

