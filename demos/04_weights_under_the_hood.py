"""A look inside the density weights, and why runs are exactly repeatable.

Part 1 takes one OU path apart. Its weight is the divergence of
u = g / |g|^2 over the step normals xi, with g the gradient and H the
Hessian of the trapezoid average F_n:

    delta = (g . xi - tr H) / |g|^2 + 2 g^T H g / |g|^4.

The package gets the four sums from one backward and one forward running
sum per path; the dense oracle in avgvar.reference builds g and H whole
and must agree to roundoff (the brute-force check).

Part 2 demonstrates the keyed noise design: each 256-path block has its
own SFC64 generator, keyed by (seed, namespace, purpose, block), and draws
its paths' normals time-major, one row of 256 per step; a path's normals
are its column of that draw. A stream serves any range of consecutive
paths, so an ensemble gives byte-identical results for any worker count,
and any single path, the range of one, can be reproduced in isolation.
"""

from avgvar import (OUParams, make_grid, reference_vol_family, run_ensemble,
                    simulate_ou_paths, validate_ou)
from avgvar.reference import dense_weight, ou_path
from avgvar.rng import PURPOSE_VOL, NoiseStream
from avgvar.weights_ou import skorokhod_weight_ou
from avgvar.workspace import Workspace

SEED = 11

vol = reference_vol_family(c=0.1, m=0.1)
model = validate_ou(OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0, r=0.05, T=1.0), vol)
grid = make_grid(1.0, 64)

# --- Part 1: one path, running sums vs the dense gradient and Hessian -----
# the simulator and the weight take their arrays from one workspace, which
# grows to what they ask; the weight spends the batch's nu there
ws = Workspace()
batch = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(1), ws)
p = model.params
wb = skorokhod_weight_ou(batch, p, ws)
sums = (wb.g_xi[0], wb.trace_h[0], wb.hessian_gg[0], wb.denominator[0])
print("one OU path at n = 64:")
print(f"  averaged variance F = {batch.avg_variance[0]:.5f}")
for name, value in zip(("g . xi", "tr H", "g^T H g", "|g|^2"), sums):
    print(f"  {name:<19} = {value:+.6e}")
print(f"  weight delta        = {wb.delta[0]:+.4f} "
      f"((g.xi - tr H) / |g|^2 {(sums[0] - sums[1]) / sums[3]:+.4f}, "
      f"2 g^T H g / |g|^4 {2 * sums[2] / sums[3] ** 2:+.4f})")

# an OU batch keeps no normals and only the last node of its path: the
# dense oracle draws the path's normals again and rebuilds its nodes
xi = NoiseStream(SEED, PURPOSE_VOL).normal_matrix(range(1), 0, grid.n_steps)
y, _ = ou_path(p, grid, xi)
ref = dense_weight(model, grid, y[:, 0], xi[:, 0] * grid.dt**0.5)
worst = max(abs(a - b) / abs(b) for a, b in zip(sums + (wb.delta[0],), ref))
print(f"  brute-force check   : largest relative gap to the dense oracle {worst:.2e}")

# --- Part 2: reproducibility ---------------------------------------------
runs = [run_ensemble(model, grid, 3000, SEED, threads=t) for t in (1, 2, 4)]
same = all(r.weight.tobytes() == runs[0].weight.tobytes() for r in runs)
print(f"\nensemble of 3000 paths with 1 / 2 / 4 threads: "
      f"{'byte-identical' if same else 'MISMATCH'}")

# a single path reproduced standalone, long after the ensemble ran: its
# noise is its column of the block draw, and every per-path sum adds in node
# order whatever the batch width, so the path alone gives the ensemble's
# F and weight exactly
lone = simulate_ou_paths(model, grid, NoiseStream(SEED, PURPOSE_VOL), range(1234, 1235), ws)
lone_weight = skorokhod_weight_ou(lone, p, ws).delta
full = runs[-1]
assert lone.avg_variance.tobytes() == full.avg_variance[1234:1235].tobytes()
assert lone_weight.tobytes() == full.weight[1234:1235].tobytes()
print("path 1234 standalone: avg_variance and weight equal the ensemble's exactly")
