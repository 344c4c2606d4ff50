"""Density estimators for the averaged variance.

Two independent routes to the same density:

  * ``malliavin_density`` -- the weight representation
    p(x) = E[1{F > x} delta], realized as a Monte Carlo average of the
    per-path Skorokhod weights. Signed terms, unbiased, no bandwidth.
  * ``kde_density`` -- a plain Gaussian kernel density estimate of the F
    samples with Silverman bandwidth 1.06 sigma N^(-1/5). Biased at
    O(h^2) but an assumption-light cross-check.

Agreement of the two within combined error bars is one of the package's
acceptance gates. Both take their standard errors from ``_block_se``, by
10-block splitting: the ensemble is cut into contiguous blocks, the
estimator evaluated per block, and the SE taken across blocks (same
bandwidth everywhere for the KDE).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, GridTooCoarse, TooFewSamples

N_SE_BLOCKS = 10
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


def _block_se(n, block_mean):
    """Per-grid-point SE of an estimate over n >= N_SE_BLOCKS samples: the
    spread of its values on N_SE_BLOCKS contiguous blocks, where
    ``block_mean(lo, hi)`` is the estimate on samples lo..hi-1."""
    edges = np.linspace(0, n, N_SE_BLOCKS + 1).astype(int)
    block_means = np.stack([block_mean(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    return block_means.std(axis=0, ddof=1) / np.sqrt(N_SE_BLOCKS)


def malliavin_density(avg_variance, weights, x_grid):
    """p_hat(x) = mean_i 1{F_i > x} w_i with block standard errors.

    The indicator is strict, matching the representation's tail form; ties
    have probability zero for continuous F. The SE is NaN (undefined) with
    fewer samples than SE blocks.
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
    if f.size < N_SE_BLOCKS:
        se = np.full(x.size, np.nan)
    else:
        se = _block_se(f.size, lambda lo, hi: terms[lo:hi].mean(axis=0))
    mass = float(np.trapezoid(p_hat, x))
    return DensityEstimate(x_grid=x, p_hat=p_hat, se=se,
                           normalization=mass, method="malliavin")


def kde_bandwidth(samples):
    """The KDE's bandwidth 1.06 sigma N^(-1/5), or a narrow fixed one for a
    sample without spread."""
    s = np.asarray(samples, dtype=float)
    h = SILVERMAN_FACTOR * s.std(ddof=1) * s.size**-0.2
    return h if h > 0 else 1e-3 * max(abs(float(s[0])), 1.0)


def kde_density(samples, x_grid):
    """Gaussian KDE on the grid with Silverman bandwidth and block SEs.

    A degenerate sample (zero spread) falls back to a narrow fixed
    bandwidth so the estimate is a unit-mass spike at the common value.
    """
    s = np.asarray(samples, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    if s.size < KDE_MIN_SAMPLES:
        raise TooFewSamples(f"KDE needs >= {KDE_MIN_SAMPLES} samples, got {s.size}")
    h = kde_bandwidth(s)

    norm = 1.0 / (h * np.sqrt(2.0 * np.pi))
    total = np.zeros(x.size)

    def block_mean(lo, hi):
        # one SE block at a time bounds the (N, n_grid) kernel matrix; the
        # block sums add up to the full-sample estimate
        u = (x[None, :] - s[lo:hi, None]) / h
        kmat = norm * np.exp(-0.5 * u * u)
        total[:] += kmat.sum(axis=0)
        return kmat.mean(axis=0)

    se = _block_se(s.size, block_mean)
    p_hat = total / s.size
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
