"""Density of the time-averaged variance under CIR (Heston) volatility.

Here the variance follows dZ = (b - Z) dt + k sqrt(Z) dW~ with the Feller
condition k^2 < 2b, and density work additionally needs 6 k^2 < b (the
paper's weight involves inverse moments of Z). The weight comes from the
same engine as in the OU case, but the Euler step of Z is not linear in
Z, so its second derivatives add the terms the OU weight does not have.
All of that is inside avgvar; this script just runs the ensemble and
compares the two density estimates.
"""

from avgvar import (CIRParams, auto_grid, kde_density, make_grid,
                    malliavin_density, mc_estimate, run_ensemble, validate_cir)

N_PATHS = 10000
N_STEPS = 256
SEED = 42

model = validate_cir(CIRParams(b=1.0, k=0.25, z0=1.0, s0=100.0,
                               r=0.05, mu=0.05, T=1.0))
print(f"Feller: k^2 = {model.params.k**2:.4f} < 2b = {2*model.params.b:.1f};  "
      f"density condition: 6k^2 = {6*model.params.k**2:.4f} < b = {model.params.b:.1f}")

print(f"simulating {N_PATHS} CIR paths on {N_STEPS} steps ...")
res = run_ensemble(model, make_grid(model.params.T, N_STEPS), N_PATHS, SEED,
                   threads=2)
f, d = res.valid_samples()

w = mc_estimate(d)
print(f"  mean weight      : {w.value:+.4f} +- {w.std_error:.4f}  (should be ~0)")
fd = mc_estimate(f * d)
print(f"  duality E[F d]   : {fd.value:+.4f} +- {fd.std_error:.4f}  (should be ~1)")

x = auto_grid(f)
mall = malliavin_density(f, d, x)
kde = kde_density(f, x)
print(f"  normalization    : malliavin {mall.normalization:.4f}, "
      f"kde {kde.normalization:.4f}")

print("\n      x     p_malliavin   (se)      p_kde   (se)")
for j in range(0, 41, 4):
    print(f"  {x[j]:.5f}   {mall.p_hat[j]:9.3f} ({mall.se[j]:5.3f})"
          f"  {kde.p_hat[j]:9.3f} ({kde.se[j]:5.3f})")
