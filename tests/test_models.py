import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgvar import (CIRParams, OUParams, ValidationError, VolFunctionSpec,
                    make_grid, reference_vol_family, run_ensemble, validate_cir,
                    validate_ou)
from avgvar.models import PROBE_GRID, nu_terms
from avgvar.reference import ou_path
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.workspace import Workspace

SEED = 20240601


def codes(err):
    return {code for code, _ in err.value.violations}


def nu_at(vol, x):
    """(nu, nu') of ``vol`` at x, as arrays of the shape of x."""
    x = np.asarray(x, dtype=float)
    return nu_terms(*vol.evaluate(x, Workspace()), out=(np.empty(x.shape), np.empty(x.shape)))


def test_reference_ou_config_accepted(ou_model):
    assert ou_model.params.alpha == 1.0


def test_zero_alpha_rejected(ref_vol):
    p = OUParams(alpha=0.0, k=0.5, y0=0.0, s0=100.0, r=0.05, T=1.0)
    with pytest.raises(ValidationError) as err:
        validate_ou(p, ref_vol)
    assert "E_NONPOSITIVE_ALPHA" in codes(err)


def test_zero_lower_bound_rejected():
    with pytest.raises(ValidationError) as err:
        reference_vol_family(0.0, 0.1)
    assert "E_NONPOSITIVE_PARAMETER" in codes(err)


def test_all_violations_reported(ref_vol):
    p = OUParams(alpha=-1.0, k=0.0, y0=0.0, s0=-5.0, r=0.05, T=0.0)
    with pytest.raises(ValidationError) as err:
        validate_ou(p, ref_vol)
    got = codes(err)
    assert {"E_NONPOSITIVE_ALPHA", "E_NONPOSITIVE_K", "E_NONPOSITIVE_SPOT",
            "E_NONPOSITIVE_MATURITY"} <= got


def test_cir_reference_accepted(cir_model):
    # 6 * 0.25^2 = 0.375 < 1
    assert validate_cir(cir_model.params) == cir_model


def test_cir_density_condition_violation():
    # k^2 = 1.44 < 2 passes Feller, but 6 * 1.44 = 8.64 >= 1
    p = CIRParams(b=1.0, k=1.2, z0=1.0, s0=100.0, r=0.05, T=1.0)
    with pytest.raises(ValidationError) as err:
        validate_cir(p)
    assert codes(err) == {"E_DENSITY_CONDITION"}


def test_cir_feller_violation():
    # 1.21 >= 1.0
    p = CIRParams(b=0.5, k=1.1, z0=1.0, s0=100.0, r=0.05, T=1.0)
    with pytest.raises(ValidationError) as err:
        validate_cir(p)
    assert "E_FELLER" in codes(err)


def test_reference_family_closed_forms(ref_vol):
    # c = m = 0.1 at x = 0
    assert ref_vol.sigma(0.0) == pytest.approx(0.2, abs=1e-15)
    assert ref_vol.sigma_prime(0.0) == pytest.approx(0.1, abs=1e-15)
    assert ref_vol.sigma_second(0.0) == pytest.approx(0.1, abs=1e-15)
    nu, nu_prime = nu_at(ref_vol, 0.0)
    assert nu == pytest.approx(0.02, abs=1e-15)
    assert nu_prime == pytest.approx(0.03, abs=1e-15)
    assert ref_vol.sigma_prime(1.0) == pytest.approx(0.1 * (1 + 1 / math.sqrt(2)),
                                                     rel=1e-12)


def test_reference_family_left_tail_limit(ref_vol):
    # x + sqrt(x^2 + 1) -> 0 from above, so sigma -> c
    val = float(ref_vol.sigma(-1e8))
    assert val > 0.1
    assert val == pytest.approx(0.1, abs=1e-8)


def test_derivatives_match_finite_differences(ref_vol, rng):
    x = rng.uniform(-5.0, 5.0, size=100)
    h = 1e-6
    fd_prime = (ref_vol.sigma(x + h) - ref_vol.sigma(x - h)) / (2 * h)
    assert np.allclose(ref_vol.sigma_prime(x), fd_prime, rtol=1e-6)
    fd_nu_prime = (nu_at(ref_vol, x + h)[0] - nu_at(ref_vol, x - h)[0]) / (2 * h)
    assert np.allclose(nu_at(ref_vol, x)[1], fd_nu_prime, rtol=1e-6)


def test_sigma_prime_positive_on_probe(ref_vol):
    x = np.linspace(-10, 10, 1001)
    assert np.all(ref_vol.sigma_prime(x) > 0)
    assert np.all(ref_vol.sigma(x) >= ref_vol.lower_bound_c)


def oracle_family(c, m):
    """The reference family as three separate closures, one formula each:
    the form the one-pass ``evaluate`` must reproduce bit for bit."""
    def sigma(x):
        x = np.asarray(x, dtype=float)
        s = np.sqrt(x * x + 1.0)
        bump = np.where(x >= 0, x + s, 1.0 / (s - x))
        return c + m * bump

    def sigma_prime(x):
        x = np.asarray(x, dtype=float)
        s = np.sqrt(x * x + 1.0)
        slope = np.where(x >= 0, (s + x) / s, 1.0 / (s * (s - x)))
        return m * slope

    def sigma_second(x):
        x = np.asarray(x, dtype=float)
        s = np.sqrt(x * x + 1.0)
        return m / s**3

    return sigma, sigma_prime, sigma_second


def test_one_pass_matches_the_three_formulas_bit_for_bit(ou_model):
    vol = ou_model.vol
    oracle = oracle_family(0.1, 0.1)
    chunk, _ = ou_path(ou_model.params, make_grid(1.0, 512),
                       NoiseStream(SEED, PURPOSE_VOL).normal_matrix(range(2048), 0, 512))
    assert chunk.shape == (513, 2048)
    for x in (PROBE_GRID, np.array([-1e8, 1e8, -0.0, 0.0]), chunk):
        # at x = 1e8, s - x = 0 in the branch that is discarded
        with np.errstate(divide="ignore"):
            got = vol.evaluate(x, Workspace())
            want = [f(x) for f in oracle]
            nu, nu_prime = nu_at(vol, x)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(nu, want[0] * want[1])
        assert np.array_equal(nu_prime, want[1] ** 2 + want[0] * want[2])


def test_three_callable_spec_runs_the_same_ensemble(ou_model):
    """A spec whose ``evaluate`` calls the three one-formula callables in
    turn, and takes no slot of the workspace, runs the reference family's
    ensemble bit for bit."""
    sigma, sigma_prime, sigma_second = oracle_family(0.1, 0.1)
    custom = VolFunctionSpec(sigma, sigma_prime, sigma_second, lower_bound_c=0.1,
                             evaluate=lambda x, ws: (sigma(x), sigma_prime(x),
                                                     sigma_second(x)))
    twin = validate_ou(ou_model.params, custom)
    grid = make_grid(1.0, 128)
    ref = run_ensemble(ou_model, grid, 3000, SEED)
    alt = run_ensemble(twin, grid, 3000, SEED)
    for name in ("avg_variance", "weight", "denominator", "failed"):
        assert np.array_equal(getattr(ref, name), getattr(alt, name), equal_nan=True)


def test_a_spec_may_return_its_values_in_its_scratch_slots(ou_model):
    """The OU pass takes no scratch slot of the volatility function once
    ``evaluate`` returns: a spec that hands back sigma, sigma' and sigma''
    in the slots tmp2, tmp0 and tmp1, which the reference family uses for
    its scratch, runs the reference family's ensemble bit for bit."""
    joint, inner = ou_model.vol.evaluate, Workspace()

    def evaluate(x, ws):
        out = tuple(ws.take(name, x.shape) for name in ("tmp2", "tmp0", "tmp1"))
        for slot, value in zip(out, joint(x, inner)):
            slot[...] = value
        return out

    twin = validate_ou(ou_model.params, VolFunctionSpec(
        *oracle_family(0.1, 0.1), lower_bound_c=0.1, evaluate=evaluate))
    grid = make_grid(1.0, 128)
    ref = run_ensemble(ou_model, grid, 3000, SEED)
    alt = run_ensemble(twin, grid, 3000, SEED)
    for name in ("avg_variance", "weight", "denominator", "failed"):
        assert getattr(ref, name).tobytes() == getattr(alt, name).tobytes()


def _raising(x, ws):
    raise ValueError("no volatility here")


def _flat(x, ws):
    return np.full(x.shape, 0.2), np.zeros(x.shape), np.zeros(x.shape)


REFERENCE = reference_vol_family(0.1, 0.1).evaluate
# each code of the probe grid, with an (evaluate, lower_bound_c) that breaks it alone
PROBE_FAILURES = {
    "E_VOL_EVAL": (_raising, 0.1),
    "E_NONPOSITIVE_LOWER_BOUND": (REFERENCE, 0.0),
    "E_SIGMA_BELOW_BOUND": (REFERENCE, 0.5),  # sigma(-10) = 0.105
    "E_SIGMA_PRIME_NONPOSITIVE": (_flat, 0.1),
    "E_NU_NOT_FINITE": (reference_vol_family(0.1, 1e160).evaluate, 0.1),
}


@pytest.mark.parametrize("code", PROBE_FAILURES)
def test_a_vol_spec_failing_on_the_probe_grid_is_rejected(ou_model, code):
    """Each probe-grid condition, broken alone by a small custom spec, is
    the one violation reported. At m = 1e160, nu = sigma sigma' overflows
    on the probe grid, and that is reported as E_NU_NOT_FINITE without a
    floating-point warning, which pytest would raise as an error."""
    evaluate, c = PROBE_FAILURES[code]
    spec = VolFunctionSpec(*(lambda x, i=i: evaluate(np.asarray(x, dtype=float),
                                                     Workspace())[i] for i in range(3)),
                           lower_bound_c=c, evaluate=evaluate)
    with pytest.raises(ValidationError) as err:
        validate_ou(ou_model.params, spec)
    assert codes(err) == {code}
    if code == "E_VOL_EVAL":
        assert "ValueError('no volatility here')" in err.value.violations[0][1]


finite_or_weird = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=200, deadline=None)
@given(alpha=finite_or_weird, k=finite_or_weird, y0=st.floats(-100, 100),
       s0=finite_or_weird, r=finite_or_weird, T=finite_or_weird)
def test_validation_is_total(alpha, k, y0, s0, r, T):
    """Every tuple maps to a model or a nonempty violation list; no crash."""
    vol = reference_vol_family(0.1, 0.1)
    params = OUParams(alpha=alpha, k=k, y0=y0, s0=s0, r=r, T=T)
    try:
        model = validate_ou(params, vol)
        assert model.params is params
    except ValidationError as err:
        assert len(err.violations) >= 1


@settings(max_examples=200, deadline=None)
@given(b=finite_or_weird, k=finite_or_weird, z0=finite_or_weird)
@example(b=2.0, k=2.0, z0=1.0)        # k^2 == 2b exactly
@example(b=1176.0, k=14.0, z0=1.0)    # 6k^2 == b exactly
def test_cir_validation_is_total(b, k, z0):
    params = CIRParams(b=b, k=k, z0=z0, s0=100.0, r=0.05, T=1.0)
    try:
        validate_cir(params)
        # np floats saturate to inf instead of raising on overflow
        with np.errstate(over="ignore"):
            assert np.float64(k) ** 2 < 2 * np.float64(b)
            assert 6 * np.float64(k) ** 2 < np.float64(b)
    except ValidationError as err:
        assert len(err.violations) >= 1
