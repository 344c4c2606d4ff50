"""Price one European call three ways off one weighted ensemble; they must agree.

  1. density quadrature: integrate the conditional Black-Scholes price
     against the Malliavin density estimate of the averaged variance,
     exactly from the weighted samples, with no density grid, less three
     control variates that the exact weight makes zero-mean (E[delta] = 0,
     E[F delta] = 1, E[F^2 delta] = 2 E[F]); its standard error is the
     smallest of the three,
  2. mixing: average the conditional Black-Scholes price over the same
     volatility trajectories,
  3. plain Monte Carlo: draw one terminal asset price per trajectory.

With independent drivers the price is a function of the law of the
averaged variance F alone, so, as in `avgvar price`, all three read the
valid paths of one ensemble. Agreement is the self check's z-band: the
worst pair's |a - b| / hypot(se_a, se_b) below 3.89. The rows share
paths, but their per-path terms correlate by less than 0.06 on these
models, so hypot(se_a, se_b) is within 1% of the SE of a paired
difference.
"""

import math

import numpy as np

from avgvar import (CIRParams, OUParams, make_grid, martingale_check,
                    price_from_density, price_mixing, price_plain_mc,
                    reference_vol_family, run_ensemble, validate_cir,
                    validate_ou)
from avgvar.rng import NAMESPACE_DENSITY

N_PATHS = 10000
SEED = 7
STRIKE = 100.0
Z_BAND = 3.89  # the self check's QUICK band, two-sided p ~ 1e-4

vol = reference_vol_family(c=0.1, m=0.1)
models = {
    "OU": validate_ou(OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0,
                               r=0.05, mu=0.05, T=1.0), vol),
    "CIR": validate_cir(CIRParams(b=1.0, k=0.25, z0=1.0, s0=100.0,
                                  r=0.05, mu=0.05, T=1.0)),
}

for tag, model in models.items():
    p = model.params

    res = run_ensemble(model, make_grid(p.T, 256), N_PATHS, SEED,
                       namespace=NAMESPACE_DENSITY, threads=2, collect_asset=True)
    f, d = res.valid_samples()
    s_t = res.terminal_asset[res.valid]
    prices = (price_from_density(f, d, STRIKE, p.s0, p.r, p.T),
              price_mixing(np.sqrt(f), STRIKE, p.s0, p.r, p.T),
              price_plain_mc(s_t, STRIKE, p.r, p.T))
    mart = martingale_check(s_t, p.s0, p.r, p.T)

    print(f"\n{tag} model, K = {STRIKE}, {f.size} valid paths of {res.n_paths}:")
    for est in prices:
        print(f"  {est.method:<18s} {est.value:8.4f} +- {est.std_error:.4f}"
              f"   95% CI [{est.ci95[0]:.4f}, {est.ci95[1]:.4f}]")
    print(f"  {'martingale_check':<18s} {mart.value:8.4f} +- {mart.std_error:.4f}"
          f"   (target s0 = {p.s0})")
    z = max(abs(a.value - b.value) / math.hypot(a.std_error, b.std_error)
            for i, a in enumerate(prices) for b in prices[i + 1:])
    print(f"  worst pairwise z: {z:.2f} ({'agree' if z < Z_BAND else 'DISAGREE'}"
          f" within {Z_BAND} SE)")
