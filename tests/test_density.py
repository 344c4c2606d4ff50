import math

import numpy as np
import pytest
from scipy.special import ndtr

import avgvar.pricing as pricing
import avgvar.selfcheck as selfcheck
from avgvar import (EmptyEnsemble, GridTooCoarse, TooFewSamples, auto_grid,
                    kde_density, malliavin_density)
from avgvar.density import (ibp_controls, kde_bandwidth, mean_and_se, quantiles,
                            subtract_controls)

SEED = 20240601


def survival_from_density(density, x):
    """Integral of p_hat from x to the top of the grid (trapezoid)."""
    xs = density.x_grid
    mask = xs >= x
    if mask.sum() < 2:
        return 0.0
    return float(np.trapezoid(density.p_hat[mask], xs[mask]))


def test_kde_recovers_standard_normal():
    rng = np.random.default_rng(SEED)
    samples = rng.standard_normal(50000)
    x = np.linspace(-4, 4, 201)
    est = kde_density(samples, x)
    truth = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
    window = (x >= -2) & (x <= 2)
    assert np.max(np.abs(est.p_hat - truth)[window]) < 0.01
    assert 0.98 <= est.normalization <= 1.02


def test_kde_identical_samples_make_a_unit_spike():
    v = 0.25
    samples = np.full(500, v)
    x = np.linspace(v - 5e-3, v + 5e-3, 201)
    est = kde_density(samples, x)
    assert est.normalization == pytest.approx(1.0, abs=0.02)
    assert x[np.argmax(est.p_hat)] == pytest.approx(v, abs=1e-4)


def test_kde_rejects_tiny_ensembles():
    with pytest.raises(TooFewSamples):
        kde_density(np.arange(50), np.linspace(0, 1, 21))


def test_malliavin_density_known_construction():
    # F uniform on (0,1) with weights built so that E[1{F>x} w] = pdf exactly:
    # for the uniform law the identity E[w (F - x)^+] = P(F > x) is solved
    # by w = delta-type weights; here we only check the estimator mechanics
    # on a synthetic pair with known mean: w == 2 gives p_hat(x) = 2(1 - x).
    rng = np.random.default_rng(SEED)
    f = rng.uniform(0, 1, 40000)
    w = np.full(f.size, 2.0)
    x = np.linspace(0.05, 0.95, 31)
    est = malliavin_density(f, w, x)
    assert np.allclose(est.p_hat, 2 * (1 - x), atol=0.03)
    assert est.se.shape == x.shape
    assert np.all(est.se > 0)


def synthetic_pairs(seed, n):
    """F ~ Exp(1) with delta = 1 + Z: E[1{F > x} delta] = e^{-x}, the density."""
    rng = np.random.default_rng(seed)
    return rng.exponential(size=n), 1.0 + rng.standard_normal(n)


def per_path_se(terms):
    return np.array([np.std(col, ddof=1) for col in terms.T]) / math.sqrt(terms.shape[0])


def smoothed_density_se(monkeypatch, f, d, x):
    """The SE of the Malliavin density smoothed by the KDE's kernel, as the
    self check's Malliavin-vs-KDE criterion computes it on (f, d)."""
    ctx = selfcheck.CheckContext(selfcheck.QUICK)
    for tag in selfcheck.MODELS:
        ctx._cache[("weighted", tag)] = (None, f, d, malliavin_density(f, d, x))
    seen, real = [], pricing.mc_estimate

    def spy(terms, *args, **kwargs):
        seen.append(real(terms, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pricing, "mc_estimate", spy)
    selfcheck.density_vs_kde(ctx)
    assert len(seen) == len(selfcheck.MODELS)
    return seen[0].std_error


def test_density_standard_errors_are_per_path(monkeypatch):
    """se_malliavin, se_kde and the self check's smoothed-density SE are
    std(terms, ddof=1) / sqrt(N) of their per-path terms."""
    f, d = synthetic_pairs(SEED, 3000)
    x = np.linspace(0.05, 3.0, 41)
    h = kde_bandwidth(f)
    u = (x[None, :] - f[:, None]) / h
    expected = {
        "malliavin": ((f[:, None] > x) * d[:, None], malliavin_density(f, d, x).se),
        "kde": (np.exp(-0.5 * u * u) / (h * math.sqrt(2 * math.pi)), kde_density(f, x).se),
        "smoothed": (ndtr(-u) * d[:, None], smoothed_density_se(monkeypatch, f, d, x)),
    }
    for name, (terms, se) in expected.items():
        assert np.all(se > 0), name
        np.testing.assert_allclose(se, per_path_se(terms), rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("n", [1, 2, 3, 3001, 3000])
def test_paired_standard_errors_are_those_of_the_pair_means(n):
    """With ``paired``, rows 2i and 2i + 1 are one antithetic pair and a
    last odd row stands alone: the SE is std(ddof=1) over the pair means,
    over the square root of their number, and the mean is unchanged. One
    pair, like one row, is its own mean with SE 0."""
    f, d = synthetic_pairs(SEED, n)
    terms = np.stack([d, f * d], axis=1)
    value, se = mean_and_se(terms, paired=True)
    assert value.tobytes() == mean_and_se(terms)[0].tobytes()
    units = [terms[i:i + 2].mean(axis=0) for i in range(0, n, 2)]
    want = np.std(units, axis=0, ddof=1) / math.sqrt(len(units)) if len(units) > 1 else 0.0
    np.testing.assert_allclose(se, want, rtol=1e-12, atol=0)


def test_density_standard_errors_are_stable_across_seeds():
    """Over 40 seeds the SE at a mid-grid point varies by a few percent
    (a 10-block SE, with 9 degrees of freedom, varies by about 24%)."""
    x = np.linspace(0.05, 3.0, 41)
    ses = {"malliavin": [], "kde": []}
    for seed in range(40):
        f, d = synthetic_pairs(seed, 4000)
        ses["malliavin"].append(malliavin_density(f, d, x).se[20])
        ses["kde"].append(kde_density(f, x).se[20])
    for name, values in ses.items():
        values = np.array(values)
        assert values.std(ddof=1) / values.mean() < 0.08, name


def test_malliavin_density_tail_is_exactly_zero():
    f = np.array([0.1, 0.2, 0.3] * 50)
    w = np.ones(150)
    x = np.linspace(0.35, 0.9, 21)
    est = malliavin_density(f, w, x)
    assert np.all(est.p_hat == 0.0)
    assert np.all(est.se == 0.0)


def test_malliavin_density_permutation_invariant():
    rng = np.random.default_rng(SEED)
    f = rng.uniform(0, 1, 5000)
    w = rng.normal(size=5000)
    x = np.linspace(0.1, 0.9, 21)
    a = malliavin_density(f, w, x)
    perm = rng.permutation(5000)
    b = malliavin_density(f[perm], w[perm], x)
    assert np.allclose(a.p_hat, b.p_hat, rtol=1e-12, atol=1e-12)


def test_density_errors():
    with pytest.raises(EmptyEnsemble):
        malliavin_density(np.array([]), np.array([]), np.linspace(0, 1, 21))
    with pytest.raises(GridTooCoarse):
        malliavin_density(np.ones(10), np.ones(10), np.linspace(0, 1, 5))


def test_auto_grid_respects_lower_bound():
    rng = np.random.default_rng(SEED)
    samples = rng.uniform(0.03, 0.08, 1000)
    g = auto_grid(samples, lower_bound=0.05)
    assert g[0] >= 0.05
    assert g[-1] >= samples.max() * 0.9
    assert g.size == 41


def test_survival_from_density_matches_mass():
    x = np.linspace(0.0, 1.0, 101)
    p = np.full(101, 1.0)
    est = malliavin_density(np.full(200, 2.0), np.ones(200), x)  # all mass above
    est.p_hat = p  # hand-made flat density
    assert survival_from_density(est, 0.25) == pytest.approx(0.75, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 8192])
@pytest.mark.parametrize("kind", ["normal", "ties", "infinite", "integer"])
def test_quantiles_match_numpy_bit_for_bit(n, kind):
    """The written-out linear interpolation gives numpy's own percentiles
    and quantiles, byte for byte, at the fractions the package asks for
    and at the ends."""
    rng = np.random.default_rng(n)
    values = {"normal": rng.normal(size=n), "ties": np.round(rng.normal(size=n), 1),
              "infinite": np.concatenate([[np.inf, -np.inf], rng.normal(size=n)]),
              "integer": rng.integers(-5, 5, size=n)}[kind]
    with np.errstate(invalid="ignore"):
        pct = quantiles(values, [1.0 / 100, 99.0 / 100])
        assert pct.tobytes() == np.array([np.percentile(values, 1.0),
                                          np.percentile(values, 99.0)]).tobytes()
        for q in ([1e-4, 1.0 - 1e-4], [0.0, 0.5, 1.0], [0.3]):
            assert quantiles(values, q).tobytes() == np.quantile(values, q).tobytes()


def test_quantiles_of_values_with_a_nan_are_nan():
    assert np.isnan(quantiles(np.array([1.0, np.nan, 2.0]), [0.01, 0.99])).all()


def test_subtract_controls_is_the_least_squares_residual():
    """terms - beta^T c equals the residual of a least-squares fit on an
    intercept and the controls, plus the intercept, per column."""
    rng = np.random.default_rng(SEED)
    f = rng.gamma(4.0, 0.01, 3000)
    w = rng.standard_normal(3000) * (1.0 + 30.0 * f)
    controls = ibp_controls(f, w)
    terms = np.stack([w * np.sqrt(f), w * f**3 + rng.standard_normal(3000)], axis=1)
    design = np.column_stack([np.ones(3000), controls.T])
    for got, y in ((subtract_controls(terms, controls), terms),
                   (subtract_controls(terms[:, 1], controls)[:, None], terms[:, 1:])):
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        np.testing.assert_allclose(got, y - controls.T @ coef[1:], rtol=1e-9, atol=1e-12)


def test_subtract_controls_drops_a_control_without_spread():
    # with F constant the centred controls (F - m) w - 1 and (F - m)^2 w - 2 (F - m)
    # have no spread, and the fit on w alone remains
    w = np.random.default_rng(SEED).standard_normal(500)
    terms = 2.5 * w + np.linspace(0.0, 1.0, 500)
    wc = w - w.mean()
    slope = np.sum(wc * terms) / np.sum(wc * wc)
    np.testing.assert_allclose(subtract_controls(terms, ibp_controls(np.full(500, 0.04), w)),
                               terms - slope * w, rtol=1e-12, atol=1e-12)
