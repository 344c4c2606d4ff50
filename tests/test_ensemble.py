import tracemalloc

import numpy as np
import pytest

import avgvar.ensemble as ens_mod
from avgvar import (EmptyEnsemble, FailureBudgetExceeded, OUParams,
                    VolFunctionSpec, make_grid, run_ensemble, summarize,
                    validate_ou)
from avgvar.ensemble import duality_statistic

SEED = 20240601


def test_summarize_constant():
    s = summarize([1.0, 1.0, 1.0])
    assert s.mean == 1.0
    assert s.se == 0.0
    assert s.ci95 == (1.0, 1.0)


def test_summarize_two_values():
    s = summarize([0.0, 2.0])
    assert s.mean == 1.0
    assert s.se == pytest.approx(1.0, rel=1e-15)
    assert s.ci95[0] == pytest.approx(-0.96, abs=1e-12)
    assert s.ci95[1] == pytest.approx(2.96, abs=1e-12)


def test_summarize_single_sample_has_no_se():
    s = summarize([3.5])
    assert s.mean == 3.5
    assert s.se is None
    assert s.ci95 is None


def test_summarize_empty_raises():
    with pytest.raises(EmptyEnsemble):
        summarize([])


def test_alternating_mean_is_exactly_zero():
    v = np.empty(10**6)
    v[0::2] = 1.0
    v[1::2] = -1.0
    assert summarize(v).mean == 0.0


def test_single_path_ensemble(ou_model):
    res = run_ensemble(ou_model, make_grid(1.0, 32), 1, SEED)
    assert res.n_paths == 1
    assert res.weight.shape == (1,)
    assert summarize(res.avg_variance).se is None


def test_thread_counts_do_not_change_a_byte(ou_model, cir_model):
    grid = make_grid(1.0, 64)
    for model in (ou_model, cir_model):
        runs = [run_ensemble(model, grid, 5000, SEED, threads=t,
                             collect_asset=True) for t in (1, 4, 8)]
        for other in runs[1:]:
            assert runs[0].avg_variance.tobytes() == other.avg_variance.tobytes()
            assert runs[0].weight.tobytes() == other.weight.tobytes()
            assert runs[0].terminal_asset.tobytes() == other.terminal_asset.tobytes()


def test_rerun_reproduces_bit_exactly(cir_model):
    grid = make_grid(1.0, 64)
    a = run_ensemble(cir_model, grid, 3000, SEED)
    b = run_ensemble(cir_model, grid, 3000, SEED)
    assert a.weight.tobytes() == b.weight.tobytes()
    c = run_ensemble(cir_model, grid, 3000, SEED + 1)
    assert a.weight.tobytes() != c.weight.tobytes()


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
        stat = duality_statistic(res)
        assert 0.5 < stat < 1.5


def test_failure_budget_enforced(ou_model, monkeypatch):
    from avgvar.weights_ou import OUWeightBatch

    def all_bad(batch, params):
        n = batch.states.shape[0]
        nan = np.full(n, np.nan)
        return OUWeightBatch(delta=nan, term_ito=nan, term_trace=nan,
                             denominator=np.full(n, -1.0), bad=np.ones(n, dtype=bool))

    monkeypatch.setattr(ens_mod, "skorokhod_weight_ou", all_bad)
    with pytest.raises(FailureBudgetExceeded):
        run_ensemble(ou_model, make_grid(1.0, 32), 500, SEED)


def test_failed_paths_below_budget_are_reported(ou_model, monkeypatch):
    from avgvar.weights_ou import skorokhod_weight_ou as real_weight

    def one_bad(batch, params):
        wb = real_weight(batch, params)
        if 0 in batch.path_indices:
            row = int(np.where(batch.path_indices == 0)[0][0])
            wb.bad[row] = True
            wb.delta[row] = np.nan
        return wb

    monkeypatch.setattr(ens_mod, "skorokhod_weight_ou", one_bad)
    res = run_ensemble(ou_model, make_grid(1.0, 32), 2000, SEED)
    assert res.n_failures == 1
    f, w = res.valid_samples()
    assert f.size == 1999
    assert np.all(np.isfinite(w))


def _flat_above_ten_model(y0):
    """sigma = 0.3 + 0.1 atan(min(x, 10)): valid on the probe grid [-10, 10],
    but sigma' = 0 at every x > 10."""
    def sigma(x):
        return 0.3 + 0.1 * np.arctan(np.minimum(x, 10.0))

    def sigma_prime(x):
        return np.where(x > 10.0, 0.0, 0.1 / (1.0 + x * x))

    def sigma_second(x):
        return np.where(x > 10.0, 0.0, -0.2 * x / (1.0 + x * x) ** 2)

    vol = VolFunctionSpec(sigma=sigma, sigma_prime=sigma_prime,
                          sigma_second=sigma_second, lower_bound_c=0.1,
                          growth_scale=0.5, growth_power=0)
    return validate_ou(OUParams(alpha=1.0, k=0.5, y0=y0, s0=100.0,
                                r=0.05, mu=0.05, T=1.0), vol)


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


@pytest.mark.parametrize("model_name,budget", [("ou_model", 7.5), ("cir_model", 8.5)])
def test_chunk_peak_memory_stays_in_budget(model_name, budget, request):
    """The traced peak of one 2048-path chunk at n=512, in whole (P, n+1)
    float64 arrays. The OU chunk holds dW, Y, nu and nu' and the weight's
    three running-sum buffers (about 7.0); the CIR kernel drops log phi
    once psi_step is formed, and F is summed on the time-major states
    without a path-major copy."""
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
