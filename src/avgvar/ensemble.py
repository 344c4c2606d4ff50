"""Ensemble orchestration: chunked, reproducible, optionally threaded.

Paths are processed in fixed-size chunks of consecutive paths; each
chunk's output lands in its slice of preallocated arrays, and every
per-path quantity depends only on (seed, namespace, purpose, path index)
through the block-keyed noise streams (``avgvar.rng``). Worker w of ``threads`` runs
chunks w, w + threads, w + 2 threads, ... with its own streams and one
``Workspace`` of whole chunk buffers, created once per ensemble and reused
by each of its chunks, so a warmed worker allocates no whole array and the
peak memory is the workspaces, whatever the allocator does. Worker count cannot change any
output value -- threads only decide who computes which chunk. Reductions
use numpy's pairwise summation on arrays assembled in path order, so means
are bit-stable too (and exactly zero for exactly-cancelling inputs).

``run_ensemble`` is the one place that decides whether a path fails. A
path fails when its batch flags it ``bad`` (a volatility-assumption breach
at a visited OU state, or a CIR path floored on too many steps) or, when
weights are computed, when it took a step where the scheme has no
derivative (``kinked``: a floored CIR step), when the weight's denominator
|grad F_n|^2 is not a positive finite number or when delta is not
finite. The simulator and the weight run with floating-point warnings
off, and the weight functions flag nothing themselves. A failed path
gets a NaN weight, is counted and reported, and is never silently dropped;
more than 0.1% failures aborts the ensemble.
"""

from dataclasses import dataclass

import numpy as np

from . import paths as _paths
from .errors import EmptyEnsemble, FailureBudgetExceeded, ValidationError
from .models import ValidatedCIRModel, ValidatedOUModel
from .rng import PURPOSE_ASSET, PURPOSE_VOL, NoiseStream, check_seed
from .weights_cir import skorokhod_weight_cir
from .weights_ou import skorokhod_weight_ou
from .workspace import Workspace

CHUNK = 2048  # a multiple of rng.BLOCK, so a chunk draws whole noise blocks
FAILURE_BUDGET = 1e-3


@dataclass
class EnsembleResult:
    avg_variance: np.ndarray    # (N,)
    weight: np.ndarray | None   # (N,) NaN on failed paths
    denominator: np.ndarray | None  # (N,) the weight's denominator |grad F_n|^2
    terminal_state: np.ndarray | None
    terminal_asset: np.ndarray | None
    failed: np.ndarray          # (N,) bool
    n_paths: int
    seed: int
    grid: _paths.TimeGrid
    antithetic: bool = False    # paths 2i and 2i + 1 are a pair

    @property
    def n_failures(self):
        return int(self.failed.sum())

    @property
    def valid(self):
        """The paths the estimates read: those that passed all guards, and
        under antithetic sampling only whole pairs, so that the valid paths
        still pair up in order (a last odd path stands alone)."""
        ok = ~self.failed
        if self.antithetic:
            pair = ok[0:self.n_paths - 1:2] & ok[1::2]
            ok[0:self.n_paths - 1:2] = ok[1::2] = pair
        return ok

    @property
    def n_dropped(self):
        """Paths that passed every guard but are left out with their failed
        antithetic partner."""
        return int(self.n_paths - self.valid.sum()) - self.n_failures

    def valid_samples(self):
        """(avg_variance, weight) over the valid paths (``valid``)."""
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


def check_threads(threads):
    """Raise E_INVALID_THREADS unless ``threads`` is an integer >= 1."""
    if not isinstance(threads, int) or threads < 1:
        raise ValidationError([("E_INVALID_THREADS",
                                f"--threads must be >= 1, got {threads}")])


def run_ensemble(model, grid, n_paths, seed, *, namespace=0, threads=1,
                 antithetic=False, compute_weights=True,
                 collect_terminal=False, collect_asset=False):
    """Simulate n_paths volatility paths and (optionally) their weights.

    Output is bit-identical for any ``threads`` value, which must be an
    integer >= 1; ``seed`` must be an integer in [0, 2^64). ``collect_asset``
    additionally draws one terminal asset price per path from the
    independent asset stream; ``avgvar price`` (``cli.cmd_price``) sets it on
    its one weighted ensemble for the plain-MC and martingale rows.
    """
    drivers = _DRIVERS.get(type(model))
    if drivers is None:
        raise TypeError(f"not a validated model: {model!r}")
    check_threads(threads)
    check_seed(seed)
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

    size = min(CHUNK, n_paths) * (grid.n_steps + 1)
    starts = range(0, n_paths, CHUNK)
    threads = min(threads, len(starts))  # a worker without a chunk would only build a workspace

    def work(worker):
        # each worker owns its streams (they are stateful) and one workspace,
        # reused by every chunk it runs; values depend only on (seed,
        # namespace, purpose, path index)
        ws = Workspace(size)
        vol_stream = NoiseStream(seed, PURPOSE_VOL, namespace, antithetic)
        asset_stream = NoiseStream(seed, PURPOSE_ASSET, namespace, antithetic)
        for lo in starts[worker::threads]:
            hi = min(lo + CHUNK, n_paths)
            chunk = range(lo, hi)
            # a failing path may overflow or turn NaN; the guards below flag it
            with np.errstate(all="ignore"):
                batch = simulate(model, grid, vol_stream, chunk, ws=ws,
                                 compute_weights=compute_weights)
                if compute_weights:
                    wb = skorokhod_weight(batch, model.params, ws=ws)
            bad = batch.bad
            if compute_weights:
                den = wb.denominator
                bad = (bad | batch.kinked | ~(den > 0) | ~np.isfinite(den)
                       | ~np.isfinite(wb.delta))
                weight[lo:hi] = np.where(bad, np.nan, wb.delta)
                denom[lo:hi] = den
            failed[lo:hi] = bad
            avg_variance[lo:hi] = batch.avg_variance
            if collect_terminal:
                terminal_state[lo:hi] = batch.states[-1]
            if collect_asset:
                terminal_asset[lo:hi] = _paths.sample_terminal_asset(
                    batch.avg_variance, model.params, asset_stream, chunk)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(threads)))
    else:
        work(0)

    result = EnsembleResult(avg_variance=avg_variance,
                            weight=weight, denominator=denom,
                            terminal_state=terminal_state,
                            terminal_asset=terminal_asset, failed=failed,
                            n_paths=n_paths, seed=int(seed), grid=grid,
                            antithetic=antithetic)
    if result.n_failures > FAILURE_BUDGET * n_paths:
        raise FailureBudgetExceeded(
            f"{result.n_failures} of {n_paths} paths failed runtime guards "
            f"(budget {FAILURE_BUDGET:.1%})")
    return result

