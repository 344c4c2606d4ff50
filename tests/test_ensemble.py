import json
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import avgvar.cli as cli
import avgvar.ensemble as ens_mod
import avgvar.paths as paths_mod
from avgvar import (EmptyEnsemble, FailureBudgetExceeded, OUParams,
                    ValidationError, VolFunctionSpec, make_grid, mc_estimate,
                    run_ensemble, validate_ou)
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.workspace import Workspace
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


@pytest.mark.parametrize("n_paths", [0, -1])
def test_an_ensemble_of_no_paths_is_rejected(ou_model, n_paths):
    with pytest.raises(EmptyEnsemble, match="n_paths must be >= 1"):
        run_ensemble(ou_model, make_grid(1.0, 32), n_paths, SEED)


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
@pytest.mark.parametrize("antithetic", [True, False])
def test_runaway_paths_fail_without_float_warnings(ref_vol, params, antithetic):
    """Validation accepts a start or a diffusion that sends Y out to 1e300;
    the overflow of such a path is flagged by the guards, and nothing on
    the way warns, with antithetic pairs or without."""
    model = validate_ou(OUParams(**{"alpha": 1.0, "k": 0.5, "y0": 0.0, "s0": 100.0,
                                    "r": 0.05, "T": 1.0, **params}), ref_vol)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FailureBudgetExceeded):
            run_ensemble(model, make_grid(1.0, 32), 500, SEED, antithetic=antithetic)


@pytest.mark.parametrize("threads", [0, -1, None, 1.5])
def test_threads_below_one_are_rejected(ou_model, threads):
    with pytest.raises(ValidationError) as info:
        run_ensemble(ou_model, make_grid(1.0, 32), 10, SEED, threads=threads)
    assert [code for code, _ in info.value.violations] == ["E_INVALID_THREADS"]


@pytest.mark.parametrize("make", [lambda m: m.params, lambda m: vars(m),
                                  lambda m: SimpleNamespace(**vars(m)),
                                  lambda m: "ou", lambda m: None],
                         ids=["params", "dict", "look-alike", "tag", "none"])
def test_anything_but_a_validated_model_is_a_type_error(ou_model, make):
    """Only a validated model picks a simulator and a weight: its bare
    parameters, a look-alike with the same fields, a tag or None raise
    TypeError from ``drivers`` and from ``run_ensemble``."""
    other = make(ou_model)
    with pytest.raises(TypeError, match="not a validated model"):
        ens_mod.drivers(other)
    with pytest.raises(TypeError, match="not a validated model"):
        run_ensemble(other, make_grid(1.0, 32), 10, SEED)


def test_thread_counts_do_not_change_a_byte(ou_model, cir_model):
    grid = make_grid(1.0, 64)
    for model in (ou_model, cir_model):
        runs = [run_ensemble(model, grid, 5000, SEED, threads=t) for t in (1, 4, 8)]
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
                        lambda: workspaces.append(workspace()) or workspaces[-1])
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
    simulate, weigh = ens_mod.drivers(model)
    grid = make_grid(1.0, 512)
    stream = NoiseStream(SEED, PURPOSE_VOL)

    def path_bytes(indices, column):
        ws = Workspace()
        batch = simulate(model, grid, stream, indices, ws)
        wb = weigh(batch, model.params, ws)
        return [a.tobytes() for a in (batch.avg_variance[column], batch.states[:, column],
                                      wb.delta[column], wb.denominator[column])]

    alone = path_bytes(range(3, 4), 0)
    assert path_bytes(range(2, 5), 1) == alone
    assert path_bytes(range(ens_mod.CHUNK), 3) == alone

    one, two = (run_ensemble(model, grid, n, SEED) for n in (2049, 2050))
    for field in ("avg_variance", "weight", "denominator"):
        assert getattr(one, field)[2048].tobytes() == getattr(two, field)[2048].tobytes()


@pytest.mark.parametrize("model_name", ["ou_model", "cir_model"])
def test_a_reused_workspace_gives_a_fresh_workspace_bytes(model_name, request):
    """One workspace runs a 3-path batch, then a full chunk, whose slots
    outgrow the first batch's, then a 3-path batch again: each batch and
    its weight equal, bit for bit, the same batch run on a fresh one."""
    model = request.getfixturevalue(model_name)
    simulate, weigh = ens_mod.drivers(model)
    grid = make_grid(1.0, 64)
    stream = NoiseStream(SEED, PURPOSE_VOL)

    def run(indices, ws):
        batch = simulate(model, grid, stream, indices, ws)
        # read before the weight, which may spend the batch's arrays
        got = [v.tobytes() for v in vars(batch).values() if isinstance(v, np.ndarray)]
        wb = weigh(batch, model.params, ws)
        return got + [v.tobytes() for v in vars(wb).values()]

    reused = Workspace()
    for indices in (range(5, 8), range(ens_mod.CHUNK), range(5, 8)):
        assert run(indices, reused) == run(indices, Workspace())


@pytest.mark.parametrize("model_name", ["ou_model", "cir_model"])
def test_no_slot_is_taken_both_whole_and_as_a_tile(model_name, request, monkeypatch):
    """One chunk at n = 512 takes its whole arrays and its tiles from one
    workspace by name, so a name taken at both sizes would alias a whole
    array with a tile. Every ``take`` of the chunk is recorded: each name
    is taken with n or n + 1 rows or with at most TILE_ROWS rows, never
    both. An OU chunk takes two whole slots, nu and nu_prime: its states
    are a tile slot."""
    model = request.getfixturevalue(model_name)
    grid = make_grid(1.0, 512)
    take = Workspace.take
    rows = {}

    def recorded(self, name, shape, dtype=float):
        rows.setdefault(name, set()).add(shape[0])
        return take(self, name, shape, dtype)

    monkeypatch.setattr(Workspace, "take", recorded)
    run_ensemble(model, grid, ens_mod.CHUNK, SEED)
    whole = {name for name, r in rows.items() if r & {grid.n_steps, grid.n_steps + 1}}
    tiles = {name for name, r in rows.items() if min(r) <= paths_mod.TILE_ROWS}
    assert whole and tiles and not whole & tiles
    assert whole | tiles == set(rows), rows
    if model_name == "ou_model":
        assert whole == {"nu", "nu_prime"}, whole


def test_antithetic_pairs_share_variance_reduction(ou_model):
    grid = make_grid(1.0, 64)
    res = run_ensemble(ou_model, grid, 2000, SEED, antithetic=True)
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

    def all_bad(batch, params, ws):
        n = batch.states.shape[1]
        one = np.ones(n)
        return WeightBatch(delta=one, denominator=-one, g_xi=one, trace_h=0 * one,
                           hessian_gg=0 * one)

    monkeypatch.setattr(ens_mod, "skorokhod_weight_ou", all_bad)
    with pytest.raises(FailureBudgetExceeded):
        run_ensemble(ou_model, make_grid(1.0, 32), 500, SEED)


def _fail_path_zero(real_weight, fault):
    """The real weight, with path 0 broken by ``fault``: on one thread the
    first chunk weighed is the first, and path 0 is its column 0."""
    first = [True]

    def one_bad(batch, params, ws):
        wb = real_weight(batch, params, ws)
        if first:
            first.pop()
            array, value = {"nan_delta": (wb.delta, np.nan), "inf_delta": (wb.delta, np.inf),
                            "zero_denominator": (wb.denominator, 0.0),
                            "nan_denominator": (wb.denominator, np.nan),
                            "inf_denominator": (wb.denominator, np.inf)}[fault]
            array[0] = value
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
    and every other normal is 0: the path is floored on that one step, the
    batch flags it ``bad``, and the ensemble fails it, and only it, with a
    NaN weight."""
    p = cir_model.params
    grid = make_grid(p.T, 1024)
    xi = np.zeros((2048, grid.n_steps))
    z = p.z0 + (p.b - p.z0) * (1.0 - (1.0 - grid.dt) ** 100)  # Z at step 100 on zero noise
    xi[576, 100] = -2.0 * (z + (p.b - z) * grid.dt) / (p.k * np.sqrt(z * grid.dt))
    plain = paths_mod.simulate_cir_paths(cir_model, grid, GivenNormals(xi), range(2048),
                                         Workspace())
    assert np.flatnonzero(plain.bad).tolist() == [576]
    monkeypatch.setattr(ens_mod, "NoiseStream", lambda *args, **kwargs: GivenNormals(xi))
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

    def evaluate(x, ws):
        return sigma(x), sigma_prime(x), sigma_second(x)

    return VolFunctionSpec(sigma=sigma, sigma_prime=sigma_prime, sigma_second=sigma_second,
                           lower_bound_c=0.1, evaluate=evaluate)


def _flat_above_ten_model(y0, k=0.5):
    return validate_ou(OUParams(alpha=1.0, k=k, y0=y0, s0=100.0,
                                r=0.05, T=1.0), _flat_above_ten_vol())


@pytest.mark.parametrize("antithetic", [True, False])
def test_visited_state_guard_fails_paths_outside_the_probe_grid(antithetic):
    grid = make_grid(1.0, 32)
    # every path starts at y0 = 12, where sigma' = 0
    with pytest.raises(FailureBudgetExceeded, match=r"^500 of 500 paths failed"):
        run_ensemble(_flat_above_ten_model(12.0), grid, 500, SEED, antithetic=antithetic)
    res = run_ensemble(_flat_above_ten_model(0.0), grid, 500, SEED, antithetic=antithetic)
    assert res.n_failures == 0


def test_vol_guard_flags_the_same_paths_with_and_without_weights():
    """The guard is decided by the path pass alone: at k = 4 the paths that
    wander above 10 are the ones the pass flags ``bad`` before any weight
    is computed, and the ensemble fails exactly those."""
    grid = make_grid(1.0, 32)
    model = _flat_above_ten_model(0.0, k=4.0)
    weighted = run_ensemble(model, grid, 20000, SEED)
    bare = paths_mod.simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(20000),
                                       Workspace())
    assert bare.bad.any()
    assert np.array_equal(weighted.failed, bare.bad)
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
                                  "r": 0.05, "T": 1.0},
        "grid": {"n_steps": 32}, "ensemble": {"n_paths": 20000, "seed": SEED},
        "output": {"directory": str(tmp_path / "out")}}))
    assert cli.main(["density", "--config", str(cfg), "--threads", "1"]) == 0
    written = np.genfromtxt(tmp_path / "out" / "weights.csv", delimiter=",", names=True)
    (failed,) = [r.failed for r in results]
    assert failed.any()
    assert np.array_equal(np.isnan(written["weight"]), failed)


@pytest.mark.parametrize("model_name,budget", [
    pytest.param("ou_model", 2.3, id="ou_model-2.3"),
    pytest.param("cir_model", 3.25, id="cir_model-3.25")])
def test_chunk_peak_memory_stays_in_budget(model_name, budget, request):
    """The traced peak of a one-chunk ensemble (2048 paths at n=512), in
    whole (P, n+1) float64 arrays. It is the worker's workspace: for OU
    nu and nu' and the tile-sized slots of the pass, two of which hold a
    tile of normals and a tile of Y (measured 2.23); for CIR dW, Z and the
    weight's gradient, besides the tile-sized step derivatives (measured
    3.17). No whole array of normals is held apart from CIR's dW: the
    stream draws one tile of step rows at a time into its caller's rows."""
    model = request.getfixturevalue(model_name)
    grid = make_grid(1.0, 512)
    n_paths = ens_mod.CHUNK
    run_ensemble(model, grid, n_paths, SEED)  # first-call allocations
    tracemalloc.start()
    try:
        run_ensemble(model, grid, n_paths, SEED)
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
