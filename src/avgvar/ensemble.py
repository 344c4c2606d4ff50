"""Ensemble orchestration: chunked, reproducible, optionally threaded.

Paths are processed in fixed-size chunks; each chunk's output lands in a
preallocated slice indexed by path number, and every per-path quantity
depends only on (seed, namespace, purpose, path index) through the
counter-based streams. Worker count therefore cannot change any output
value -- threads only decide who computes which chunk. Reductions use
numpy's pairwise summation on arrays assembled in path order, so means are
bit-stable too (and exactly zero for exactly-cancelling inputs).

Failed paths (guard violations: nonpositive denominator, nonfinite weight,
floor saturation, a volatility-assumption breach at a visited state) are
counted and reported, never silently dropped; more than 0.1% failures
aborts the ensemble.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import paths as _paths
from .errors import EmptyEnsemble, FailureBudgetExceeded
from .models import ValidatedCIRModel, ValidatedOUModel
from .rng import PURPOSE_ASSET, PURPOSE_VOL, NoiseStream
from .weights_cir import skorokhod_weight_cir
from .weights_ou import skorokhod_weight_ou

CHUNK = 2048
FAILURE_BUDGET = 1e-3


@dataclass
class Summary:
    mean: float
    se: float | None   # None when undefined (single sample)
    ci95: tuple | None


def summarize(values):
    """Mean, standard error, and 95% interval of a sample vector."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyEnsemble("summarize() needs at least one value")
    mean = float(np.mean(v))
    if v.size == 1:
        return Summary(mean=mean, se=None, ci95=None)
    se = float(v.std(ddof=1) / math.sqrt(v.size))
    return Summary(mean=mean, se=se, ci95=(mean - 1.96 * se, mean + 1.96 * se))


@dataclass
class EnsembleResult:
    avg_variance: np.ndarray    # (N,)
    weight: np.ndarray | None   # (N,) NaN on failed paths
    denominator: np.ndarray | None  # (N,) the weight's denominator, G or I
    terminal_state: np.ndarray | None
    terminal_asset: np.ndarray | None
    failed: np.ndarray          # (N,) bool
    n_paths: int
    seed: int
    grid: _paths.TimeGrid

    @property
    def n_failures(self):
        return int(self.failed.sum())

    @property
    def valid(self):
        return ~self.failed

    def valid_samples(self):
        """(avg_variance, weight) over paths that passed all guards."""
        m = self.valid
        w = self.weight[m] if self.weight is not None else None
        return self.avg_variance[m], w


# the simulator and weight of each model, looked up by name when an
# ensemble starts, so that a rebinding of these module globals (a tracer, a
# test double) is the one that runs
_DRIVERS = {
    ValidatedOUModel: lambda: (_paths.simulate_ou_paths, skorokhod_weight_ou),
    ValidatedCIRModel: lambda: (_paths.simulate_cir_paths, skorokhod_weight_cir),
}


def run_ensemble(model, grid, n_paths, seed, *, namespace=0, threads=1,
                 antithetic=False, compute_weights=True,
                 collect_terminal=False, collect_asset=False):
    """Simulate n_paths volatility paths and (optionally) their weights.

    Output is bit-identical for any ``threads`` value. ``collect_asset``
    additionally draws one terminal asset price per path from the
    independent asset stream (used by the plain-MC pricer and the
    martingale diagnostic).
    """
    drivers = _DRIVERS.get(type(model))
    if drivers is None:
        raise TypeError(f"not a validated model: {model!r}")
    simulate, skorokhod_weight = drivers()
    n_paths = int(n_paths)
    if n_paths < 1:
        raise EmptyEnsemble("n_paths must be >= 1")

    avg_variance = np.empty(n_paths)
    weight = np.full(n_paths, np.nan) if compute_weights else None
    denom = np.full(n_paths, np.nan) if compute_weights else None
    terminal_state = np.empty(n_paths) if collect_terminal else None
    terminal_asset = np.empty(n_paths) if collect_asset else None
    failed = np.zeros(n_paths, dtype=bool)

    def work(lo):
        hi = min(lo + CHUNK, n_paths)
        idx = np.arange(lo, hi)
        # streams are stateful, so each chunk task builds its own; values
        # depend only on (seed, namespace, purpose, path index)
        vol_stream = NoiseStream(seed, PURPOSE_VOL, namespace=namespace)
        batch = simulate(model, grid, vol_stream, idx, antithetic=antithetic)
        failed[idx] = batch.bad
        if compute_weights:
            wb = skorokhod_weight(batch, model.params)
            weight[idx] = wb.delta
            denom[idx] = wb.denominator
            failed[idx] |= wb.bad
        avg_variance[idx] = batch.avg_variance
        if collect_terminal:
            terminal_state[idx] = batch.states[:, -1]
        if collect_asset:
            asset_stream = NoiseStream(seed, PURPOSE_ASSET, namespace=namespace)
            terminal_asset[idx] = _paths.sample_terminal_asset(
                batch.avg_variance, model.params, asset_stream, idx,
                antithetic=antithetic)

    starts = range(0, n_paths, CHUNK)
    threads = threads or os.cpu_count() or 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    else:
        for lo in starts:
            work(lo)

    result = EnsembleResult(avg_variance=avg_variance,
                            weight=weight, denominator=denom,
                            terminal_state=terminal_state,
                            terminal_asset=terminal_asset, failed=failed,
                            n_paths=n_paths, seed=int(seed), grid=grid)
    if result.n_failures > FAILURE_BUDGET * n_paths:
        raise FailureBudgetExceeded(
            f"{result.n_failures} of {n_paths} paths failed runtime guards "
            f"(budget {FAILURE_BUDGET:.1%})")
    return result


def duality_statistic(result):
    """mean(F * delta) over valid paths; should be 1 within noise."""
    f, w = result.valid_samples()
    if w is None or f.size == 0:
        return float("nan")
    return float(np.mean(f * w))
