import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from avgvar import (EmptyEnsemble, OUParams, ValidatedOUModel, bs_conditional,
                    make_grid, martingale_check, price_from_density, price_mixing,
                    price_plain_mc, run_ensemble, sample_terminal_asset,
                    simulate_ou_paths, skorokhod_weight_ou)
from avgvar import pricing, selfcheck
from avgvar.pricing import payoff_integral
from avgvar.rng import PURPOSE_ASSET, PURPOSE_VOL, NoiseStream

SEED = 20240601


def bs_oracle(s0, strike, r, T, sigma):
    """Independent Black-Scholes evaluation (math.erfc route)."""
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    return s0 * phi(d1) - strike * math.exp(-r * T) * phi(d2)


def test_zero_strike_returns_spot():
    disc = bs_conditional(0.37, 0.0, 100.0, 0.05, 1.0)
    assert disc == pytest.approx(100.0, rel=1e-15)


def test_atm_reference_value():
    # sigma = 0.2, s0 = K = 100, r = 0.05, T = 1: the standard textbook call
    disc = bs_conditional(0.2, 100.0, 100.0, 0.05, 1.0)
    assert disc == pytest.approx(bs_oracle(100.0, 100.0, 0.05, 1.0, 0.2), abs=1e-12)
    assert disc == pytest.approx(10.450584, abs=5e-7)


def test_zero_vol_limit():
    disc = bs_conditional(0.0, 100.0, 100.0, 0.05, 1.0)
    assert disc == pytest.approx(100.0 - 100.0 * math.exp(-0.05), rel=1e-12)
    assert disc == pytest.approx(4.877058, abs=5e-7)
    # deep out of the money at zero vol
    disc = bs_conditional(0.0, 200.0, 100.0, 0.05, 1.0)
    assert disc == 0.0


@settings(max_examples=200, deadline=None)
@given(sig=st.floats(0.0, 3.0), strike=st.floats(0.0, 400.0),
       r=st.floats(0.0, 0.2), t=st.floats(0.05, 5.0))
# a strike so small that ln(s0 / K) overflows once met 0 * inf
@example(sig=1.0, strike=2.2250738585072014e-308, r=0.0, t=1.0)
def test_bs_bounds(sig, strike, r, t):
    disc = bs_conditional(sig, strike, 100.0, r, t)
    lower = max(100.0 - strike * math.exp(-r * t), 0.0)
    assert lower - 1e-9 <= disc <= 100.0 + 1e-9


@settings(max_examples=100, deadline=None)
@given(lo=st.floats(0.1, 2.0), gap=st.floats(0.01, 1.0),
       strike=st.floats(70.0, 150.0))
def test_bs_strictly_increasing_in_vol(lo, gap, strike):
    # moneyness kept where Phi has float headroom: deep ITM at low vol
    # saturates Phi(d) to 1.0 exactly and the vega is below one ulp
    p1 = bs_conditional(lo, strike, 100.0, 0.05, 1.0)
    p2 = bs_conditional(lo + gap, strike, 100.0, 0.05, 1.0)
    assert p2 > p1


@settings(max_examples=100, deadline=None)
@given(lo=st.floats(0.01, 2.0), gap=st.floats(0.01, 1.0),
       strike=st.floats(10.0, 300.0))
# deep in the money, fwd Phi(d1) - K Phi(d2) once fell by 8 ulps here
@example(lo=0.01, gap=0.01, strike=89.375)
# deep out of the money, it once rounded to -8.4e-323 at sigma = 0.02
@example(lo=0.01, gap=0.01, strike=226.25)
def test_bs_nondecreasing_in_vol_everywhere(lo, gap, strike):
    p1 = bs_conditional(lo, strike, 100.0, 0.05, 1.0)
    p2 = bs_conditional(lo + gap, strike, 100.0, 0.05, 1.0)
    assert p2 >= p1 >= 0.0


def test_mixing_constant_samples_exact():
    # a constant sample is its own mean, with no spread (numpy's pairwise
    # sum of 1024 equal values rounds unless their low bits are zero)
    est = price_mixing(np.full(1024, 0.2), 100.0, 100.0, 0.05, 1.0)
    disc = bs_conditional(0.2, 100.0, 100.0, 0.05, 1.0)
    assert est.value == disc
    assert est.std_error == 0.0
    assert est.ci95 == (est.value, est.value)


def test_mixing_deep_out_of_the_money():
    rng = np.random.default_rng(SEED)
    est = price_mixing(rng.uniform(0.1, 0.3, 2000), 1e6, 100.0, 0.05, 1.0)
    assert est.value < 1e-3


def test_mixing_empty_raises():
    with pytest.raises(EmptyEnsemble):
        price_mixing(np.array([]), 100.0, 100.0, 0.05, 1.0)


def _payoff_integral_error(strike, lo, hi):
    """G(F) - G(lo) against adaptive quadrature of the conditional price
    over [lo, F], at lo, hi and 8 uniform draws between; the errors and
    the references."""
    f = np.concatenate([[lo, hi], np.random.default_rng(SEED).uniform(lo, hi, 8)])
    g = payoff_integral(f, strike, 100.0, 0.05, 1.0)
    price = lambda x: bs_conditional(math.sqrt(x), strike, 100.0, 0.05, 1.0)
    ref = np.array([quad(price, lo, x, epsabs=0.0, epsrel=1e-13, limit=200)[0] for x in f[1:]])
    return (g[1:] - g[0]) - ref, ref


AT_THE_FORWARD = 100.0 * math.exp(0.05)  # m = ln(s0 / K e^{-rT}) = 0


@pytest.mark.parametrize("strike", [80.0, 100.0, 130.0, AT_THE_FORWARD])
@pytest.mark.parametrize("lo, hi", [(0.012, 0.2), (0.5, 1.6)])  # OU and CIR demo spreads
def test_payoff_integral_matches_quad(strike, lo, hi):
    err, ref = _payoff_integral_error(strike, lo, hi)
    assert np.max(np.abs(err) / ref) < 1e-12


@pytest.mark.parametrize("lo, hi", [(0.012, 0.2), (1e-8, 1.6)])
def test_payoff_integral_at_zero_strike_is_linear(lo, hi):
    f = np.concatenate([[lo, hi], np.random.default_rng(SEED).uniform(lo, hi, 8)])
    g = payoff_integral(f, 0.0, 100.0, 0.05, 1.0)
    np.testing.assert_allclose(g[1:] - g[0], 100.0 * (f[1:] - lo), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("strike", [1e-6, 80.0, AT_THE_FORWARD, 130.0, 1e6])
@pytest.mark.parametrize("lo, hi", [(1e-8, 1e-3), (1e-8, 0.2), (1e-8, 1.6)])
def test_payoff_integral_near_zero_and_in_the_tails(strike, lo, hi):
    # relative error means nothing where the price is below the float64
    # resolution of its neighbours, so the bound is on s0 (hi - lo)
    err, _ = _payoff_integral_error(strike, lo, hi)
    assert np.max(np.abs(err)) <= 1e-12 * 100.0 * (hi - lo)


@pytest.mark.parametrize("strike", [80.0, 100.0, 130.0, AT_THE_FORWARD])
@pytest.mark.parametrize("mean", [0.04, 1.0])
def test_payoff_integral_next_to_the_mean_sample_matches_quad(strike, mean):
    # within NEAR_MEAN of the mean sample, G is the 3-point rule from it,
    # exact to rounding however small the integral is
    f = mean * (1.0 + np.linspace(-2.0, 2.0, 9) * pricing.NEAR_MEAN)
    near = np.abs(f - f.mean()) <= pricing.NEAR_MEAN * f.mean()
    assert 0 < near.sum() < f.size
    g = payoff_integral(f, strike, 100.0, 0.05, 1.0)[near]
    price = lambda x: bs_conditional(math.sqrt(x), strike, 100.0, 0.05, 1.0)
    ref = np.array([quad(price, f.mean(), x, epsabs=0.0, epsrel=1e-13)[0] for x in f[near]])
    assert np.all(np.abs(g - ref) <= 1e-14 * np.abs(ref))


def test_price_ignores_a_constant_shift_of_the_payoff_integral(ou_model, monkeypatch):
    # shifting G moves each term by a multiple of w, which the w control absorbs
    batch = simulate_ou_paths(ou_model, make_grid(1.0, 32), NoiseStream(SEED, PURPOSE_VOL),
                              range(2000))
    f, w = batch.avg_variance, skorokhod_weight_ou(batch, ou_model.params).delta
    base = price_from_density(f, w, 100.0, 100.0, 0.05, 1.0)
    unshifted = pricing.payoff_integral
    monkeypatch.setattr(pricing, "payoff_integral", lambda *a: unshifted(*a) + 3.7)
    shifted = price_from_density(f, w, 100.0, 100.0, 0.05, 1.0)
    assert shifted.value == pytest.approx(base.value, rel=1e-12)
    assert shifted.std_error == pytest.approx(base.std_error, rel=1e-9)


@pytest.mark.parametrize("tag", ["ou", "cir"])
def test_quadrature_se_matches_the_seed_to_seed_spread(tag, ou_model, cir_model):
    """Over 32 seeds the spread of the estimates over the RMS printed SE
    lies in the 99.9% band of sqrt(chi^2_31 / 31)."""
    model = ou_model if tag == "ou" else cir_model
    p = model.params
    values, ses = [], []
    for seed in range(32):
        ens = run_ensemble(model, make_grid(p.T, 32), 2048, seed)
        f, w = ens.valid_samples()
        est = price_from_density(f, w, 100.0, p.s0, p.r, p.T)
        values.append(est.value)
        ses.append(est.std_error)
    ratio = np.std(values, ddof=1) / math.sqrt(np.mean(np.square(ses)))
    lo, hi = np.sqrt(chi2.ppf([0.0005, 0.9995], 31) / 31)
    assert lo < ratio < hi


def test_plain_mc_zero_strike_recovers_spot(ou_model):
    grid = make_grid(1.0, 64)
    p = ou_model.params
    batch = simulate_ou_paths(ou_model, grid, NoiseStream(SEED, PURPOSE_VOL), range(20000))
    s_t = sample_terminal_asset(batch.avg_variance, p,
                                NoiseStream(SEED, PURPOSE_ASSET), range(20000))
    est = price_plain_mc(s_t, 0.0, p.r, p.T)
    assert abs(est.value - p.s0) < 3 * est.std_error
    mart = martingale_check(s_t, p.s0, p.r, p.T)
    assert abs(mart.value - p.s0) < 3 * mart.std_error


def test_deterministic_vol_model_matches_quadrature_oracle(ref_vol):
    """k = 0 and y0 = 1: sigma(Y_t) = sigma(e^{-t}) is deterministic, so the
    price is Black-Scholes at the quadrature-averaged volatility."""
    params = OUParams(alpha=1.0, k=0.0, y0=1.0, s0=100.0, r=0.05, mu=0.05, T=1.0)
    model = ValidatedOUModel(params=params, vol=ref_vol)
    grid = make_grid(1.0, 256)

    var_integral, _ = quad(lambda t: float(ref_vol.sigma(math.exp(-t)))**2, 0.0, 1.0)
    oracle = bs_oracle(100.0, 100.0, 0.05, 1.0, math.sqrt(var_integral))

    batch = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(20000))
    assert batch.avg_variance.std() < 1e-12  # deterministic volatility path
    mix = price_mixing(np.sqrt(batch.avg_variance), 100.0, 100.0, 0.05, 1.0)
    assert mix.value == pytest.approx(oracle, rel=2e-4)  # trapezoid-vs-quad gap

    s_t = sample_terminal_asset(batch.avg_variance, params,
                                NoiseStream(SEED, PURPOSE_ASSET), range(20000))
    plain = price_plain_mc(s_t, 100.0, 0.05, 1.0)
    assert abs(plain.value - oracle) < 3 * plain.std_error


def test_price_triangle_passes_at_quick_on_seed_4():
    """Seed 4 is where the z-band on 20000 pricing paths came from: under
    the earlier noise (one Philox draw of whole paths per 256-path block)
    the 95% intervals of its 8000-path CIR plain (43.55) and mixing (39.80)
    prices did not overlap. Those figures belong to that noise and no
    longer arise; the test stays as one more seed at which the QUICK price
    triangle must pass, so that the band cannot tighten back unnoticed."""
    ctx = selfcheck.CheckContext(selfcheck.QUICK, seed=4)
    rows = selfcheck.run_criterion(selfcheck.price_triangle, ctx)
    assert all(row.passed for row in rows), rows


def test_price_triangle_fails_when_the_ou_weight_is_ten_percent_large(fault_weight):
    """The z-band sees an OU weight 10% too large on the pinned seed. With
    8000 pricing paths it did not: the row's power needs QUICK's 20000."""
    fault_weight(lambda wb: 1.10 * wb.delta, "ou")
    ctx = selfcheck.CheckContext(selfcheck.QUICK)
    rows = selfcheck.run_criterion(selfcheck.price_triangle, ctx)
    assert [row.passed for row in rows] == [False, True], rows
