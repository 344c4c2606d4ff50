"""Price one European call three independent ways; they must agree.

  1. density quadrature: integrate the conditional Black-Scholes price
     against the Malliavin density estimate of the averaged variance,
     exactly from the weighted samples, with no density grid, less three
     control variates that the exact weight makes zero-mean (E[delta] = 0,
     E[F delta] = 1, E[F^2 delta] = 2 E[F]); its standard error is the
     smallest of the three,
  2. mixing: average the conditional Black-Scholes price over simulated
     volatility trajectories,
  3. plain Monte Carlo: simulate terminal asset prices outright.

Each method uses its own noise (separate stream namespaces), so the
agreement below is a genuine cross-check, not shared randomness.
"""

import numpy as np

from avgvar import (CIRParams, OUParams, make_grid, martingale_check,
                    price_from_density, price_mixing, price_plain_mc,
                    reference_vol_family, run_ensemble, validate_cir,
                    validate_ou)
from avgvar.rng import NAMESPACE_DENSITY, NAMESPACE_MIXING, NAMESPACE_PLAIN

N_PATHS = 10000
SEED = 7
STRIKE = 100.0

vol = reference_vol_family(c=0.1, m=0.1)
models = {
    "OU": validate_ou(OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0,
                               r=0.05, mu=0.05, T=1.0), vol),
    "CIR": validate_cir(CIRParams(b=1.0, k=0.25, z0=1.0, s0=100.0,
                                  r=0.05, mu=0.05, T=1.0), density_mode=True),
}

for tag, model in models.items():
    p = model.params

    dens_res = run_ensemble(model, make_grid(p.T, 256), N_PATHS, SEED,
                            namespace=NAMESPACE_DENSITY, threads=2)
    f, d = dens_res.valid_samples()
    p_dens = price_from_density(f, d, STRIKE, p.s0, p.r, p.T)

    mix_res = run_ensemble(model, make_grid(p.T, 128), N_PATHS, SEED,
                           namespace=NAMESPACE_MIXING, threads=2,
                           compute_weights=False)
    p_mix = price_mixing(np.sqrt(mix_res.avg_variance), STRIKE, p.s0, p.r, p.T)

    plain_res = run_ensemble(model, make_grid(p.T, 128), N_PATHS, SEED,
                             namespace=NAMESPACE_PLAIN, threads=2,
                             compute_weights=False, collect_asset=True)
    p_plain = price_plain_mc(plain_res.terminal_asset, STRIKE, p.r, p.T)
    mart = martingale_check(plain_res.terminal_asset, p.s0, p.r, p.T)

    print(f"\n{tag} model, K = {STRIKE}:")
    for est in (p_dens, p_mix, p_plain):
        print(f"  {est.method:<18s} {est.value:8.4f} +- {est.std_error:.4f}"
              f"   95% CI [{est.ci95[0]:.4f}, {est.ci95[1]:.4f}]")
    print(f"  {'martingale_check':<18s} {mart.value:8.4f} +- {mart.std_error:.4f}"
          f"   (target s0 = {p.s0})")
    agree = (p_dens.overlaps(p_mix) and p_dens.overlaps(p_plain)
             and p_mix.overlaps(p_plain))
    print(f"  pairwise CI overlap: {'yes' if agree else 'NO'}")
