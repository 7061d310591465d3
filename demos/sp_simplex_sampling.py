"""The eigenvalue simplex of Sp(2)/U(2).

The three Nijenhuis eigenvalues of Sp(2)/U(2) fill the 3-simplex
0 <= l1_1 <= l2_1 <= l1_2 <= 2.  This script samples the orbit, checks
the inequalities in bulk, and evaluates the chain at the torus-fixed
points, which land exactly on the simplex vertices.

Run:  python demos/sp_simplex_sampling.py
"""

import numpy as np

import pnorbit as pn
from pnorbit.hermsym import batch_points, moment, torus_fixed_points
from pnorbit.spectrum import batch_free_values, batch_violations, chain_batch

case = pn.build_case("ci", n=2)
print(f"case: {case.name}, eigenvalue tuple lives in R^{case.n_eig}")

n_samples = 20000
_, ms = batch_points(case, seed=0, start=0, count=n_samples)
batch = chain_batch(case, ms)
labels, data, _ = batch_free_values(case, batch)
violations = batch_violations(case, batch)

print(f"\nsampled {n_samples} points; inequality violations: {violations}")
for lbl, col in zip(labels, data.T):
    print(f"  {lbl}: range [{col.min():.5f}, {col.max():.5f}]")

# order statistics of the simplex 0 <= a <= b <= c <= 2
lam = np.sort(data, axis=1)
print("\nsimplex chain (should hold for every sample):")
print(f"  min lambda_1          = {lam[:, 0].min():+.2e}  (>= 0)")
print(f"  max lambda_3          = {lam[:, 2].max():.6f}  (<= 2)")
print(f"  max (lambda_1 - lambda_2) = {(lam[:, 0] - lam[:, 1]).max():+.2e}")

print("\ntorus-fixed points map onto the simplex vertices:")
seen = set()
for g in torus_fixed_points(case):
    cs = pn.chain_spectrum(case, moment(case, g))
    vertex = tuple(np.round(cs.free_values(), 12))
    seen.add(vertex)
for v in sorted(seen):
    print("  ", np.array(v))
print(f"({len(seen)} distinct vertices, all coordinates in {{0, 2}})")
