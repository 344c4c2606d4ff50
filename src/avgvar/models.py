"""Model parameters, the pluggable volatility function, and validation.

Two stochastic-volatility models are supported, both priced under the
minimal martingale measure (the asset drift is the risk-free rate; the
volatility driver keeps its objective dynamics):

    OU model:   dS = r S dt + sigma(Y) S dW,   dY = -alpha Y dt + k dW~
    CIR model:  dS = r S dt + sqrt(Z) S dW,    dZ = (b - Z) dt + k sqrt(Z) dW~

with W and W~ independent. The objective drift mu is recorded for
documentation but never used by pricing.

Validation is total: every parameter tuple either yields a validated model
or raises ValidationError listing every violated assumption. Constraints on
the volatility function (lower bound, strictly positive derivative) are
checked on a fixed probe grid [-10, 10] with 1001 points; path simulation
re-asserts them on all visited states.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .workspace import Workspace

PROBE_GRID = np.linspace(-10.0, 10.0, 1001)
# the largest s0, forward s0 e^{rT} and strike accepted. A terminal price is
# the forward times a lognormal factor of at most e^{xi^2 / 2} = 5e21 at
# |xi| <= 10, and the pricers sum N such terms and their squares: at 1e100
# that stays below 1e260 for N up to 1e9, far inside the float range
MAX_PRICE = 1e100


@dataclass(frozen=True)
class VolFunctionSpec:
    """Volatility function sigma with its first two derivatives.

    ``lower_bound_c`` witnesses sigma(x) >= c > 0, which validation checks
    on the probe grid and the path guard at every visited state. The
    growth bound sigma(x) <= q (1 + |x|^l) is checked nowhere: a spec's
    author vouches for it. The OU weight consumes the products nu and nu' of
    ``nu_terms``: f = sigma^2 has f' = 2 nu and f'' = 2 nu'.

    ``evaluate(x, ws)`` returns (sigma, sigma', sigma'') at x, as float
    arrays of the shape of x, which the caller may overwrite. The OU path
    pass calls it once per tile of states (``paths.TILE_ROWS`` node rows),
    with the chunk's workspace ``ws`` (``avgvar.workspace``), from which it
    may take tile-sized slots but not the pass's own (y, nu, nu_prime,
    noise and mask); the reference family's one pass takes tmp0-2, sigma
    and sigma_prime, sharing its intermediates.
    ``sigma``, ``sigma_prime`` and ``sigma_second`` evaluate one each.
    """

    sigma: Callable
    sigma_prime: Callable
    sigma_second: Callable
    lower_bound_c: float
    evaluate: Callable


def nu_terms(sig, sig_p, sig_pp, out):
    """nu = sigma * sigma' and nu' = sigma'^2 + sigma * sigma'' from the
    values of ``VolFunctionSpec.evaluate``, written into ``out``, a pair of
    arrays of their shape. sigma'' is spent as scratch.
    """
    nu, nu_prime = out
    sig_pp *= sig
    np.multiply(sig, sig_p, out=nu)
    np.multiply(sig_p, sig_p, out=nu_prime)
    nu_prime += sig_pp
    return nu, nu_prime


@dataclass(frozen=True)
class OUParams:
    alpha: float  # mean-reversion rate, > 0
    k: float      # diffusion coefficient of the driver, > 0
    y0: float     # initial driver state
    s0: float     # initial asset price, > 0
    r: float      # risk-free rate, >= 0
    mu: float     # objective drift; unused under the pricing measure
    T: float      # maturity, > 0


@dataclass(frozen=True)
class CIRParams:
    b: float      # long-run variance level, > 0
    k: float      # vol-of-vol, > 0
    z0: float     # initial variance, > 0
    s0: float
    r: float
    mu: float
    T: float


@dataclass(frozen=True)
class Contract:
    strike: float  # K >= 0


@dataclass(frozen=True)
class ValidatedOUModel:
    params: OUParams
    vol: VolFunctionSpec

    @property
    def density_lower_bound(self):
        """F >= c^2 on every path, since sigma >= c."""
        return self.vol.lower_bound_c ** 2

    @property
    def grid_bias_rate(self):
        """alpha: the trapezoid F_n stands further from the continuous F as
        alpha dt grows, though the weight is exact for F_n at any dt (README,
        "Grid resolution")."""
        return self.params.alpha


@dataclass(frozen=True)
class ValidatedCIRModel:
    params: CIRParams

    # the averaged CIR variance has no positive lower bound
    density_lower_bound = None
    # no alpha*dt warning: the CIR model has no decay rate that outruns the
    # grid, and the weight is exact for F_n at any dt (README, "Grid resolution")
    grid_bias_rate = None


def reference_vol_family(c, m):
    """The shipped volatility family sigma(x) = c + m (x + sqrt(x^2 + 1)).

    Smooth, bounded below by c (the x + sqrt(x^2+1) term is positive and
    tends to 0 as x -> -inf), strictly increasing, and of linear growth, so
    it satisfies every hypothesis the density formulas need. Closed-form
    derivatives:

        sigma'(x)  = m (1 + x / sqrt(x^2 + 1)) > 0
        sigma''(x) = m / (x^2 + 1)^(3/2)

    Evaluation uses the conjugate form 1 / (sqrt(x^2+1) - x) for x < 0 to
    avoid cancellation far in the left tail.
    """
    if not (c > 0) or not (m > 0):
        raise ValidationError([("E_NONPOSITIVE_PARAMETER",
                                f"reference family needs c > 0 and m > 0, got c={c}, m={m}")])
    c = float(c)
    m = float(m)

    def joint(x, ws):
        # one sqrt, one mask and one a = |x| + s for all three (a is x + s
        # for x >= 0 and s - x for x < 0, exactly); the operations run in
        # place on five buffers, each with the operands and order of the
        # closed forms, so the values match them bit for bit
        x = np.asarray(x, dtype=float)
        shape = x.shape
        x = np.atleast_1d(x)
        neg = np.less(x, 0, out=ws.take("tmp2", x.shape, bool))
        s = np.multiply(x, x, out=ws.take("tmp1", x.shape))
        s += 1.0
        np.sqrt(s, out=s)
        a = np.abs(x, out=ws.take("tmp0", x.shape))
        a += s
        # The branches are chosen by an integer select on the bits,
        # r = p ^ ((q ^ p) * neg), not by a masked copy or divide: the sign
        # of the states changes at random from one element to the next, and
        # masked loops mispredict on that pattern.
        a_bits = a.view(np.int64)
        # sigma = c + m * (x + s  if x >= 0 else  1 / (s - x))
        sigma = np.divide(1.0, a, out=ws.take("sigma", x.shape))
        sigma_bits = sigma.view(np.int64)
        sigma_bits ^= a_bits
        sigma_bits *= neg
        sigma_bits ^= a_bits
        sigma *= m
        sigma += c
        # sigma' = m * ((x + s) / s  if x >= 0 else  1 / (s (s - x)))
        sigma_prime = np.divide(a, s, out=ws.take("sigma_prime", x.shape))
        sigma_prime_bits = sigma_prime.view(np.int64)
        a *= s
        np.divide(1.0, a, out=a)
        a_bits ^= sigma_prime_bits
        a_bits *= neg
        sigma_prime_bits ^= a_bits
        sigma_prime *= m
        # sigma'' = m / s^3
        sigma_second = np.power(s, 3, out=s)
        np.divide(m, sigma_second, out=sigma_second)
        return sigma.reshape(shape), sigma_prime.reshape(shape), sigma_second.reshape(shape)

    return VolFunctionSpec(
        sigma=lambda x: joint(x, Workspace())[0],
        sigma_prime=lambda x: joint(x, Workspace())[1],
        sigma_second=lambda x: joint(x, Workspace())[2],
        lower_bound_c=c,
        evaluate=joint,
    )


def _check_vol_on_grid(vol, violations):
    """Sample the (A2)-style constraints on the probe grid."""
    x = PROBE_GRID
    try:
        sig, sig_p, sig_pp = vol.evaluate(x, Workspace())
        nu, nu_p = nu_terms(sig, sig_p, sig_pp, out=(np.empty(x.shape), np.empty(x.shape)))
    except Exception as exc:  # a vol spec that cannot be evaluated is invalid
        violations.append(("E_VOL_EVAL", f"volatility function raised on probe grid: {exc!r}"))
        return
    if not (vol.lower_bound_c > 0):
        violations.append(("E_NONPOSITIVE_LOWER_BOUND",
                           f"lower bound c must be > 0, got {vol.lower_bound_c}"))
    elif not np.all(sig >= vol.lower_bound_c * (1.0 - 1e-12)):
        violations.append(("E_SIGMA_BELOW_BOUND",
                           "sigma(x) dips below its declared lower bound on the probe grid"))
    if not np.all(sig_p > 0):
        violations.append(("E_SIGMA_PRIME_NONPOSITIVE",
                           "sigma'(x) must be strictly positive (probe grid violation)"))
    if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(nu_p))):
        violations.append(("E_NU_NOT_FINITE", "nu or nu' is not finite on the probe grid"))


def _check_common(params, violations):
    for name in params.__dataclass_fields__:
        value = getattr(params, name)
        if not math.isfinite(value):
            violations.append(("E_NOT_FINITE", f"{name} must be finite, got {value}"))
    if not (params.s0 > 0):
        violations.append(("E_NONPOSITIVE_SPOT", f"s0 must be > 0, got {params.s0}"))
    if not (params.r >= 0):
        violations.append(("E_NEGATIVE_RATE", f"r must be >= 0, got {params.r}"))
    if not (params.T > 0):
        violations.append(("E_NONPOSITIVE_MATURITY", f"T must be > 0, got {params.T}"))
    # the pricers read s0 and the forward s0 e^{rT}, and square sums of them
    if all(math.isfinite(v) for v in (params.s0, params.r, params.T)):
        try:
            forward = params.s0 * math.exp(params.r * params.T)
        except OverflowError:
            forward = math.inf
        if not max(params.s0, forward) <= MAX_PRICE:
            violations.append(("E_FORWARD_OVERFLOW", f"s0 and the forward s0*exp(r*T) must "
                               f"be at most {MAX_PRICE:g}, got s0={params.s0}, "
                               f"r*T={params.r * params.T}"))


def validate_ou(params, vol):
    """Validate an OU-volatility model; raises ValidationError on any violation."""
    violations = []
    if not (params.alpha > 0):
        violations.append(("E_NONPOSITIVE_ALPHA", f"alpha must be > 0, got {params.alpha}"))
    if not (params.k > 0):
        violations.append(("E_NONPOSITIVE_K", f"k must be > 0, got {params.k}"))
    _check_common(params, violations)
    _check_vol_on_grid(vol, violations)
    if violations:
        raise ValidationError(violations)
    return ValidatedOUModel(params=params, vol=vol)


def validate_cir(params):
    """Validate a CIR-volatility model: the Feller-type condition k^2 < 2b
    keeps the variance positive, and 6 k^2 < b is the hypothesis of the
    averaged-variance density formula. Each is required and reported."""
    violations = []
    if not (params.b > 0):
        violations.append(("E_NONPOSITIVE_B", f"b must be > 0, got {params.b}"))
    if not (params.k > 0):
        violations.append(("E_NONPOSITIVE_K", f"k must be > 0, got {params.k}"))
    # float products saturate to inf instead of raising, so these compare
    # exactly at the boundary and never raise anything but ValidationError
    k2 = params.k * params.k
    if params.b > 0 and params.k > 0 and not (k2 < 2.0 * params.b):
        violations.append(("E_FELLER", "k^2 >= 2*b"))
    if params.b > 0 and params.k > 0 and not (6.0 * k2 < params.b):
        violations.append(("E_DENSITY_CONDITION", "6*k^2 >= b"))
    if not (params.z0 > 0):
        violations.append(("E_NONPOSITIVE_Z0", f"z0 must be > 0, got {params.z0}"))
    _check_common(params, violations)
    if violations:
        raise ValidationError(violations)
    return ValidatedCIRModel(params=params)


def validate_contract(contract):
    if not (contract.strike >= 0):
        raise ValidationError([("E_NEGATIVE_STRIKE",
                                f"strike must be >= 0, got {contract.strike}")])
    if not (contract.strike <= MAX_PRICE):
        raise ValidationError([("E_STRIKE_TOO_LARGE",
                                f"strike must be at most {MAX_PRICE:g}, got {contract.strike}")])
    return contract
