import json
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import avgvar.cli as cli
import avgvar.ensemble as ens_mod
import avgvar.paths as paths_mod
from avgvar import (EmptyEnsemble, FailureBudgetExceeded, OUParams,
                    ValidationError, VolFunctionSpec, make_grid, mc_estimate,
                    run_ensemble, validate_ou)
from avgvar.rng import PURPOSE_VOL, NoiseStream
from bridge import GivenNormals

SEED = 20240601


# the ensemble's samples are summarized by the package's one Monte Carlo
# estimator, pricing.mc_estimate
def test_summarize_constant():
    s = mc_estimate([1.0, 1.0, 1.0])
    assert s.value == 1.0
    assert s.std_error == 0.0
    assert s.ci95 == (1.0, 1.0)


def test_summarize_two_values():
    s = mc_estimate([0.0, 2.0])
    assert s.value == 1.0
    assert s.std_error == pytest.approx(1.0, rel=1e-15)
    assert s.ci95[0] == pytest.approx(-0.96, abs=1e-12)
    assert s.ci95[1] == pytest.approx(2.96, abs=1e-12)


def test_summarize_single_sample_has_zero_se():
    s = mc_estimate([3.5])
    assert s.value == 3.5
    assert s.std_error == 0.0
    assert s.ci95 == (3.5, 3.5)


def test_summarize_empty_raises():
    with pytest.raises(EmptyEnsemble):
        mc_estimate([])


def test_columns_reduce_by_the_vector_rule(rng):
    """An (N, m) array gives one value and SE per column, as each column
    alone would; a constant column is its own value, with SE 0."""
    terms = np.column_stack([rng.normal(size=500), np.full(500, 0.1),
                             rng.exponential(size=500), np.zeros(500)])
    terms[::2, 3] = -0.0
    est = mc_estimate(terms)
    assert est.value.shape == est.std_error.shape == (4,)
    for j in range(4):
        col = mc_estimate(terms[:, j])
        assert est.value[j] == pytest.approx(col.value, rel=1e-12, abs=0.0)
        assert est.std_error[j] == pytest.approx(col.std_error, rel=1e-12, abs=0.0)
        assert est.ci95[0][j] == pytest.approx(col.ci95[0], rel=1e-12, abs=0.0)
    assert est.value[1] == 0.1 and est.std_error[1] == 0.0
    assert est.value[3] == 0.0 and not np.signbit(est.value[3])
    assert est.std_error[0] == pytest.approx(terms[:, 0].std(ddof=1) / np.sqrt(500),
                                             rel=1e-12)
    one = mc_estimate(terms[:1])
    assert np.array_equal(one.value, terms[0]) and np.all(one.std_error == 0.0)


def test_alternating_mean_is_exactly_zero():
    v = np.empty(10**6)
    v[0::2] = 1.0
    v[1::2] = -1.0
    assert mc_estimate(v).value == 0.0


def test_single_path_ensemble(ou_model):
    res = run_ensemble(ou_model, make_grid(1.0, 32), 1, SEED)
    assert res.n_paths == 1
    assert res.weight.shape == (1,)
    assert mc_estimate(res.avg_variance).std_error == 0.0


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.0, "1"])
def test_seeds_outside_the_key_range_are_rejected(ou_model, seed):
    """The noise key holds a 64-bit seed, so 2^64 + 1 would alias 1."""
    with pytest.raises(ValidationError) as info:
        run_ensemble(ou_model, make_grid(1.0, 32), 10, seed)
    assert [code for code, _ in info.value.violations] == ["E_INVALID_SEED"]


def test_seed_range_ends_are_accepted(ou_model):
    grid = make_grid(1.0, 32)
    low, high = (run_ensemble(ou_model, grid, 10, seed) for seed in (0, 2**64 - 1))
    assert low.weight.tobytes() != high.weight.tobytes()


@pytest.mark.parametrize("params", [{"y0": 1e300}, {"k": 1e300}])
@pytest.mark.parametrize("compute_weights", [True, False])
def test_runaway_paths_fail_without_float_warnings(ref_vol, params, compute_weights):
    """Validation accepts a start or a diffusion that sends Y out to 1e300;
    the overflow of such a path is flagged by the guards, and nothing on
    the way warns."""
    model = validate_ou(OUParams(**{"alpha": 1.0, "k": 0.5, "y0": 0.0, "s0": 100.0,
                                    "r": 0.05, "mu": 0.05, "T": 1.0, **params}), ref_vol)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FailureBudgetExceeded):
            run_ensemble(model, make_grid(1.0, 32), 500, SEED,
                         compute_weights=compute_weights)


@pytest.mark.parametrize("threads", [0, -1, None, 1.5])
def test_threads_below_one_are_rejected(ou_model, threads):
    with pytest.raises(ValidationError) as info:
        run_ensemble(ou_model, make_grid(1.0, 32), 10, SEED, threads=threads)
    assert [code for code, _ in info.value.violations] == ["E_INVALID_THREADS"]


def test_thread_counts_do_not_change_a_byte(ou_model, cir_model):
    grid = make_grid(1.0, 64)
    for model in (ou_model, cir_model):
        runs = [run_ensemble(model, grid, 5000, SEED, threads=t,
                             collect_asset=True) for t in (1, 4, 8)]
        for other in runs[1:]:
            assert runs[0].avg_variance.tobytes() == other.avg_variance.tobytes()
            assert runs[0].weight.tobytes() == other.weight.tobytes()
            assert runs[0].terminal_asset.tobytes() == other.terminal_asset.tobytes()


def test_workers_are_capped_at_the_chunk_count(ou_model, monkeypatch):
    """Two chunks on eight requested threads start two workers, each with
    one workspace, and give the serial bytes."""
    grid = make_grid(1.0, 16)
    serial = run_ensemble(ou_model, grid, 2 * ens_mod.CHUNK, SEED)
    workspaces, started = [], []
    workspace, start = ens_mod.Workspace, threading.Thread.start
    monkeypatch.setattr(ens_mod, "Workspace",
                        lambda size: workspaces.append(size) or workspace(size))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    capped = run_ensemble(ou_model, grid, 2 * ens_mod.CHUNK, SEED, threads=8)
    assert len(workspaces) == 2 and len(started) <= 2
    for name in ("avg_variance", "weight", "denominator", "failed"):
        assert getattr(serial, name).tobytes() == getattr(capped, name).tobytes()


def test_rerun_reproduces_bit_exactly(cir_model):
    grid = make_grid(1.0, 64)
    a = run_ensemble(cir_model, grid, 3000, SEED)
    b = run_ensemble(cir_model, grid, 3000, SEED)
    assert a.weight.tobytes() == b.weight.tobytes()
    c = run_ensemble(cir_model, grid, 3000, SEED + 1)
    assert a.weight.tobytes() != c.weight.tobytes()


@pytest.mark.parametrize("model_name", ["ou_model", "cir_model"])
def test_a_path_does_not_depend_on_its_batch_width(model_name, request):
    """A path simulated and weighed alone, inside a 3-path batch and inside
    a full chunk gives the same bytes, and so does the last path of an
    ensemble whose final chunk holds one path or two."""
    model = request.getfixturevalue(model_name)
    simulate, weigh = ens_mod._DRIVERS[type(model)]()
    grid = make_grid(1.0, 512)
    stream = NoiseStream(SEED, PURPOSE_VOL)

    def path_bytes(indices, column):
        batch = simulate(model, grid, stream, indices)
        wb = weigh(batch, model.params)
        return [a.tobytes() for a in (batch.avg_variance[column], batch.states[:, column],
                                      wb.delta[column], wb.denominator[column])]

    alone = path_bytes(range(3, 4), 0)
    assert path_bytes(range(2, 5), 1) == alone
    assert path_bytes(range(ens_mod.CHUNK), 3) == alone

    one, two = (run_ensemble(model, grid, n, SEED) for n in (2049, 2050))
    for field in ("avg_variance", "weight", "denominator"):
        assert getattr(one, field)[2048].tobytes() == getattr(two, field)[2048].tobytes()


def test_antithetic_pairs_share_variance_reduction(ou_model):
    grid = make_grid(1.0, 64)
    res = run_ensemble(ou_model, grid, 2000, SEED, antithetic=True,
                       compute_weights=False, collect_terminal=True)
    y = res.terminal_state
    # antithetic partner of an even path is its exact mirror
    assert np.allclose(y[0::2], -y[1::2], rtol=1e-12, atol=1e-14)


def test_no_failures_on_reference_models(ou_model, cir_model):
    grid = make_grid(1.0, 128)
    for model in (ou_model, cir_model):
        res = run_ensemble(model, grid, 5000, SEED)
        assert res.n_failures == 0
        assert np.all(res.denominator > 0)
        f, w = res.valid_samples()
        assert 0.5 < mc_estimate(f * w).value < 1.5


def test_failure_budget_enforced(ou_model, monkeypatch):
    from avgvar.weights import WeightBatch

    def all_bad(batch, params, ws=None):
        n = batch.states.shape[1]
        one = np.ones(n)
        return WeightBatch(delta=one, denominator=-one, g_xi=one, trace_h=0 * one,
                           hessian_gg=0 * one)

    monkeypatch.setattr(ens_mod, "skorokhod_weight_ou", all_bad)
    with pytest.raises(FailureBudgetExceeded):
        run_ensemble(ou_model, make_grid(1.0, 32), 500, SEED)


def _fail_path_zero(real_weight, fault):
    """The real weight, with path 0 broken by ``fault``."""
    def one_bad(batch, params, ws=None):
        wb = real_weight(batch, params, ws=ws)
        if 0 in batch.path_indices:
            row = batch.path_indices.index(0)
            array, value = {"nan_delta": (wb.delta, np.nan), "inf_delta": (wb.delta, np.inf),
                            "zero_denominator": (wb.denominator, 0.0),
                            "nan_denominator": (wb.denominator, np.nan),
                            "inf_denominator": (wb.denominator, np.inf)}[fault]
            array[row] = value
        return wb
    return one_bad


def test_failed_paths_below_budget_are_reported(ou_model, monkeypatch):
    from avgvar.weights_ou import skorokhod_weight_ou as real_weight

    monkeypatch.setattr(ens_mod, "skorokhod_weight_ou", _fail_path_zero(real_weight, "nan_delta"))
    res = run_ensemble(ou_model, make_grid(1.0, 32), 2000, SEED)
    assert res.n_failures == 1
    f, w = res.valid_samples()
    assert f.size == 1999
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("fault", ["inf_delta", "zero_denominator", "nan_denominator",
                                   "inf_denominator"])
def test_each_guard_fails_the_path_with_a_nan_weight(ou_model, monkeypatch, fault):
    from avgvar.weights_ou import skorokhod_weight_ou as real_weight

    monkeypatch.setattr(ens_mod, "skorokhod_weight_ou", _fail_path_zero(real_weight, fault))
    res = run_ensemble(ou_model, make_grid(1.0, 32), 2000, SEED)
    assert res.n_failures == 1 and res.failed[0]
    assert np.isnan(res.weight[0]) and np.all(np.isfinite(res.weight[1:]))


def test_weighted_path_with_a_floored_step_fails(cir_model, monkeypatch):
    """The CIR step has no derivative where it is floored. Of 2048 paths at
    n = 1024, path 576 draws one normal large enough to floor its step 100,
    and every other normal is 0: the path is floored on one step, within
    the unweighted budget FLOOR_RATE_LIMIT * n, so it fails, with a NaN
    weight, only when weights are computed."""
    p = cir_model.params
    grid = make_grid(p.T, 1024)
    xi = np.zeros((2048, grid.n_steps))
    z = p.z0 + (p.b - p.z0) * (1.0 - (1.0 - grid.dt) ** 100)  # Z at step 100 on zero noise
    xi[576, 100] = -2.0 * (z + (p.b - z) * grid.dt) / (p.k * np.sqrt(z * grid.dt))
    monkeypatch.setattr(ens_mod, "NoiseStream", lambda *args, **kwargs: GivenNormals(xi))
    plain = run_ensemble(cir_model, grid, 2048, SEED, compute_weights=False)
    assert plain.n_failures == 0
    weighted = run_ensemble(cir_model, grid, 2048, SEED)
    assert np.flatnonzero(weighted.failed).tolist() == [576]
    assert np.isnan(weighted.weight[576]) and np.all(np.isfinite(np.delete(weighted.weight, 576)))
    assert weighted.avg_variance.tobytes() == plain.avg_variance.tobytes()


def _flat_above_ten_vol():
    """sigma = 0.3 + 0.1 atan(min(x, 10)): valid on the probe grid [-10, 10],
    but sigma' = 0 at every x > 10."""
    def sigma(x):
        return 0.3 + 0.1 * np.arctan(np.minimum(x, 10.0))

    def sigma_prime(x):
        return np.where(x > 10.0, 0.0, 0.1 / (1.0 + x * x))

    def sigma_second(x):
        return np.where(x > 10.0, 0.0, -0.2 * x / (1.0 + x * x) ** 2)

    return VolFunctionSpec(sigma=sigma, sigma_prime=sigma_prime,
                           sigma_second=sigma_second, lower_bound_c=0.1)


def _flat_above_ten_model(y0, k=0.5):
    return validate_ou(OUParams(alpha=1.0, k=k, y0=y0, s0=100.0,
                                r=0.05, mu=0.05, T=1.0), _flat_above_ten_vol())


@pytest.mark.parametrize("compute_weights", [True, False])
def test_visited_state_guard_fails_paths_outside_the_probe_grid(compute_weights):
    grid = make_grid(1.0, 32)
    # every path starts at y0 = 12, where sigma' = 0
    with pytest.raises(FailureBudgetExceeded, match=r"^500 of 500 paths failed"):
        run_ensemble(_flat_above_ten_model(12.0), grid, 500, SEED,
                     compute_weights=compute_weights)
    res = run_ensemble(_flat_above_ten_model(0.0), grid, 500, SEED,
                       compute_weights=compute_weights)
    assert res.n_failures == 0


def test_vol_guard_flags_the_same_paths_with_and_without_weights():
    """The guard is decided by the path pass alone: at k = 4 the same paths
    wander above 10 whether or not sigma'' and the weights are computed."""
    grid = make_grid(1.0, 32)
    weighted, bare = (run_ensemble(_flat_above_ten_model(0.0, k=4.0), grid, 20000, SEED,
                                   compute_weights=cw) for cw in (True, False))
    assert bare.n_failures > 0
    assert np.array_equal(weighted.failed, bare.failed)
    assert weighted.avg_variance.tobytes() == bare.avg_variance.tobytes()


def test_antithetic_pair_with_a_failed_path_is_dropped_whole():
    """At k = 4 a few paths wander above 10 and fail the guard, and their
    mirrors below -10 do not. Under antithetic sampling each such pair
    leaves the valid samples whole, so they still pair up in order, and
    ``n_dropped`` counts the partners left out."""
    grid = make_grid(1.0, 32)
    res = run_ensemble(_flat_above_ten_model(0.0, k=4.0), grid, 20001, SEED, antithetic=True)
    assert 0 < res.n_failures <= ens_mod.FAILURE_BUDGET * res.n_paths
    pairs = res.failed[0:-1:2] | res.failed[1::2]
    assert res.n_dropped == 2 * pairs.sum() - res.failed[:-1].sum() > 0
    assert np.array_equal(res.valid[0:-1:2], ~pairs)
    assert np.array_equal(res.valid[1::2], ~pairs)
    assert res.valid[-1] == (not res.failed[-1])
    f, w = res.valid_samples()
    assert f.size == res.n_paths - res.n_failures - res.n_dropped
    assert np.all(np.isfinite(w))


def test_weight_free_ou_ensemble_matches_the_weighted_one(ou_model):
    grid = make_grid(1.0, 512)
    weighted, bare = (run_ensemble(ou_model, grid, 2 * ens_mod.CHUNK + 300, SEED,
                                   compute_weights=cw, collect_terminal=True)
                      for cw in (True, False))
    assert bare.weight is None and bare.denominator is None
    for field in ("avg_variance", "failed", "terminal_state"):
        assert getattr(weighted, field).tobytes() == getattr(bare, field).tobytes()


def test_paths_failing_the_vol_guard_get_nan_weights(tmp_path, monkeypatch):
    """At k = 4 a few paths wander above 10, where sigma' = 0: the batch
    flags them, and their weight is NaN both in the ensemble result and in
    weights.csv, though the weight formula gives them a finite value."""
    grid = make_grid(1.0, 32)
    res = run_ensemble(_flat_above_ten_model(0.0, k=4.0), grid, 20000, SEED)
    assert 0 < res.n_failures <= ens_mod.FAILURE_BUDGET * res.n_paths
    assert np.array_equal(np.isnan(res.weight), res.failed)

    results = []

    def keep_result(*args, **kwargs):
        results.append(run_ensemble(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "reference_vol_family", lambda c, m: _flat_above_ten_vol())
    monkeypatch.setattr(cli, "run_ensemble", keep_result)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "ou", "params": {"alpha": 1.0, "k": 4.0, "y0": 0.0, "s0": 100.0,
                                  "r": 0.05, "mu": 0.05, "T": 1.0},
        "grid": {"n_steps": 32}, "ensemble": {"n_paths": 20000, "seed": SEED},
        "output": {"directory": str(tmp_path / "out")}}))
    assert cli.main(["density", "--config", str(cfg), "--threads", "1"]) == 0
    written = np.genfromtxt(tmp_path / "out" / "weights.csv", delimiter=",", names=True)
    (failed,) = [r.failed for r in results]
    assert failed.any()
    assert np.array_equal(np.isnan(written["weight"]), failed)


@pytest.mark.parametrize("model_name,compute_weights,budget", [
    pytest.param("ou_model", True, 3.3, id="ou_model-3.3"),
    pytest.param("ou_model", False, 1.3, id="ou_model-weight_free-1.3"),
    pytest.param("cir_model", True, 3.25, id="cir_model-3.25")])
def test_chunk_peak_memory_stays_in_budget(model_name, compute_weights, budget, request):
    """The traced peak of a one-chunk ensemble (2048 paths at n=512), in
    whole (P, n+1) float64 arrays. It is the worker's workspace: for OU
    Y, nu and nu' (without weights, Y alone) and the tile-sized slots of
    the pass, one of which holds a tile of normals (measured 3.22 and
    1.21); for CIR dW, Z and the weight's gradient, besides the tile-sized
    step derivatives (measured 3.17). No whole array of normals is held
    apart from CIR's dW: the stream draws one tile of step rows at a time
    into its caller's rows."""
    model = request.getfixturevalue(model_name)
    grid = make_grid(1.0, 512)
    n_paths = ens_mod.CHUNK
    run_ensemble(model, grid, n_paths, SEED, compute_weights=compute_weights)  # first-call allocations
    tracemalloc.start()
    try:
        run_ensemble(model, grid, n_paths, SEED, compute_weights=compute_weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = n_paths * (grid.n_steps + 1) * 8
    assert peak <= budget * whole, peak / whole


@pytest.mark.parametrize("model_name,simulator", [("ou_model", "simulate_ou_paths"),
                                                  ("cir_model", "simulate_cir_paths")])
def test_warm_chunk_allocates_no_whole_array(model_name, simulator, request, monkeypatch):
    """The second of three chunks runs on the workspace the first warmed:
    from its start to the start of the third, the traced memory rises by
    less than half of one whole (P, n+1) array."""
    model = request.getfixturevalue(model_name)
    grid = make_grid(1.0, 512)
    real = getattr(paths_mod, simulator)
    marks = []  # (current, peak since the previous mark) at each chunk start

    def marked(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return real(*args, **kwargs)

    monkeypatch.setattr(paths_mod, simulator, marked)
    tracemalloc.start()
    try:
        run_ensemble(model, grid, 3 * ens_mod.CHUNK, SEED)
    finally:
        tracemalloc.stop()
    assert len(marks) == 3
    whole = ens_mod.CHUNK * (grid.n_steps + 1) * 8
    rise = marks[2][1] - marks[1][0]
    assert rise < 0.5 * whole, rise / whole
