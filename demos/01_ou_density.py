"""Density of the time-averaged variance under OU-driven volatility.

The model: dS = r S dt + sigma(Y) S dW with dY = -alpha Y dt + k dW~ and
independent drivers. The call price only sees the averaged variance
F = (1/T) int sigma^2(Y_s) ds, so its density p(x) is the object of
interest. We estimate it two independent ways on one simulated ensemble:

  * the Skorokhod-weight representation p(x) = E[1{F > x} delta], whose
    per-path weight delta is the exact divergence computed in avgvar, and
  * a plain Gaussian KDE of the F samples,

and print them side by side with the built-in diagnostics (normalization
mass, zero-mean weights, the duality statistic E[F delta] = 1).
"""

from avgvar import (OUParams, auto_grid, kde_density, make_grid,
                    malliavin_density, mc_estimate, reference_vol_family,
                    run_ensemble, validate_ou)
from avgvar.ensemble import duality_statistic

N_PATHS = 10000
N_STEPS = 256
SEED = 42

vol = reference_vol_family(c=0.1, m=0.1)
model = validate_ou(OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0,
                             r=0.05, mu=0.05, T=1.0), vol)

print(f"simulating {N_PATHS} OU paths on {N_STEPS} steps ...")
res = run_ensemble(model, make_grid(model.params.T, N_STEPS), N_PATHS, SEED,
                   threads=2)
f, d = res.valid_samples()
print(f"  failures: {res.n_failures}, averaged variance in "
      f"[{f.min():.4f}, {f.max():.4f}]")

w = mc_estimate(d)
print(f"  mean weight      : {w.value:+.4f} +- {w.std_error:.4f}  (should be ~0)")
print(f"  duality E[F d]   : {duality_statistic(res):.4f}          (should be ~1)")

x = auto_grid(f, points=41, lower_bound=model.density_lower_bound)
mall = malliavin_density(f, d, x)
kde = kde_density(f, x)
print(f"  normalization    : malliavin {mall.normalization:.4f}, "
      f"kde {kde.normalization:.4f}")

print("\n      x     p_malliavin   (se)      p_kde   (se)")
for j in range(0, 41, 4):
    print(f"  {x[j]:.5f}   {mall.p_hat[j]:9.3f} ({mall.se[j]:5.3f})"
          f"  {kde.p_hat[j]:9.3f} ({kde.se[j]:5.3f})")
