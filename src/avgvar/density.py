"""Density estimators for the averaged variance.

Two independent routes to the same density:

  * ``malliavin_density`` -- the weight representation
    p(x) = E[1{F > x} delta], realized as a Monte Carlo average of the
    per-path Skorokhod weights. Signed terms, unbiased, no bandwidth.
  * ``kde_density`` -- a plain Gaussian kernel density estimate of the F
    samples with Silverman bandwidth 1.06 sigma N^(-1/5). Biased at
    O(h^2) but an assumption-light cross-check.

Agreement of the two within combined error bars is one of the package's
acceptance gates. Standard errors for both use 10-block splitting: the
ensemble is cut into contiguous blocks, the estimator evaluated per block,
and the SE taken across blocks (same bandwidth everywhere for the KDE).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, GridTooCoarse, TooFewSamples

N_SE_BLOCKS = 10
MIN_GRID_POINTS = 21
KDE_MIN_SAMPLES = 100


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


def _block_se(term_matrix):
    """SE across N_SE_BLOCKS contiguous blocks of the per-sample terms.

    term_matrix has shape (N, n_grid); returns per-grid-point SEs, or NaN
    when there are fewer samples than blocks (SE undefined).
    """
    n = term_matrix.shape[0]
    if n < N_SE_BLOCKS:
        return np.full(term_matrix.shape[1], np.nan)
    edges = np.linspace(0, n, N_SE_BLOCKS + 1).astype(int)
    block_means = np.stack([term_matrix[lo:hi].mean(axis=0)
                            for lo, hi in zip(edges[:-1], edges[1:])])
    return block_means.std(axis=0, ddof=1) / np.sqrt(N_SE_BLOCKS)


def malliavin_density(avg_variance, weights, x_grid):
    """p_hat(x) = mean_i 1{F_i > x} w_i with block standard errors.

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

    terms = (f[:, None] > x[None, :]) * w[:, None]
    p_hat = terms.mean(axis=0)
    se = _block_se(terms)
    mass = float(np.trapezoid(p_hat, x))
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=mass, method="malliavin")


def kde_density(samples, x_grid, bandwidth=None):
    """Gaussian KDE on the grid with Silverman bandwidth and block SEs.

    A degenerate sample (zero spread) falls back to a narrow fixed
    bandwidth so the estimate is a unit-mass spike at the common value.
    """
    s = np.asarray(samples, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    if s.size < KDE_MIN_SAMPLES:
        raise TooFewSamples(f"KDE needs >= {KDE_MIN_SAMPLES} samples, got {s.size}")
    h = bandwidth if bandwidth is not None else 1.06 * s.std(ddof=1) * s.size**-0.2
    if not h > 0:
        h = 1e-3 * max(abs(float(s[0])), 1.0)

    norm = 1.0 / (h * np.sqrt(2.0 * np.pi))
    # chunk over samples to bound the (N, n_grid) kernel matrix
    total = np.zeros(x.size)
    edges = np.linspace(0, s.size, N_SE_BLOCKS + 1).astype(int)
    block_means = np.empty((N_SE_BLOCKS, x.size))
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        u = (x[None, :] - s[lo:hi, None]) / h
        kmat = norm * np.exp(-0.5 * u * u)
        block_means[b] = kmat.mean(axis=0)
        total += kmat.sum(axis=0)
    p_hat = total / s.size
    se = block_means.std(axis=0, ddof=1) / np.sqrt(N_SE_BLOCKS)
    mass = float(np.trapezoid(p_hat, x))
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=mass, method="kde")


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
