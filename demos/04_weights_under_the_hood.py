"""A look inside the density weights, and why runs are exactly repeatable.

Part 1 dissects one OU path: the kernel eta, the denominator G, the two
weight terms, and a check of the factorized computation against the
brute-force double sums (they implement the same quadrature, so agreement
is at roundoff).

Part 2 demonstrates the counter-based noise design: a path's normals are
its row of one Philox draw per 256-path block, addressed by (seed,
namespace, purpose, path index), so an ensemble gives byte-identical
results for any worker count, and any single path can be reproduced in
isolation.
"""

import numpy as np

from avgvar import (OUParams, make_grid, reference_vol_family, run_ensemble,
                    simulate_ou_paths, validate_ou)
from avgvar.reference import ou_weight_double_sum
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_ou import skorokhod_weight_ou

SEED = 11

vol = reference_vol_family(c=0.1, m=0.1)
model = validate_ou(OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0,
                             r=0.05, mu=0.05, T=1.0), vol)
grid = make_grid(1.0, 64)

# --- Part 1: one path, factorized vs brute force -------------------------
batch = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), [0])
nu, nup = batch.nu, batch.nu_prime
p = model.params
wb = skorokhod_weight_ou(batch, p)

G = wb.denominator[0]
eta = (p.alpha * p.T / p.k) * np.exp(-p.alpha * grid.t) * nu[0] / G
print("one OU path at n = 64:")
print(f"  averaged variance F = {batch.avg_variance[0]:.5f}")
print(f"  denominator G       = {G:.6e}  (positive on every valid path)")
print(f"  eta range           = [{eta.min():.2f}, {eta.max():.2f}]")
print(f"  weight delta        = {wb.delta[0]:+.4f} "
      f"(ito {wb.term_ito[0]:+.4f} - trace {wb.term_trace[0]:+.4f})")

ito_ref, trace_ref, g_ref = ou_weight_double_sum(nu[0], nup[0], batch.dW[0],
                                                 grid, p.alpha, p.k)
print(f"  brute-force check   : |G - G_ref|/G = {abs(G - g_ref) / g_ref:.2e}, "
      f"|ito - ref|/|ref| = {abs(wb.term_ito[0] - ito_ref) / abs(ito_ref):.2e}, "
      f"|trace - ref|/|ref| = {abs(wb.term_trace[0] - trace_ref) / abs(trace_ref):.2e}")

# --- Part 2: reproducibility ---------------------------------------------
runs = [run_ensemble(model, grid, 3000, SEED, threads=t) for t in (1, 2, 4)]
same = all(r.weight.tobytes() == runs[0].weight.tobytes() for r in runs)
print(f"\nensemble of 3000 paths with 1 / 2 / 4 threads: "
      f"{'byte-identical' if same else 'MISMATCH'}")

# a single path reproduced standalone, long after the ensemble ran: the
# noise is identical by construction; derived reductions (dot products)
# agree to one ulp, since BLAS summation order varies with batch shape
lone = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), [1234])
again = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), [1234])
full = run_ensemble(model, grid, 3000, SEED, threads=4)
assert np.array_equal(lone.dW, again.dW) and np.array_equal(lone.states, again.states)
gap = abs(lone.avg_variance[0] - full.avg_variance[1234])
print(f"path 1234 standalone: same noise and states on every recomputation; "
      f"avg_variance matches the ensemble's to {gap:.1e} (reduction-order ulp)")
