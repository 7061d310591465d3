"""The bihamiltonian structure on Gr(1,3), checked end to end.

Builds both Poisson matrices at a random point once, as one BracketPair,
and runs every check on that pair: the pencil is Poisson (fd Jacobi at
t = 0 and t = 1, which together with the symplectic member certifies
compatibility), the eigenvalues are in involution under both brackets, and
the Lenard recursion holds for the trace invariants I_k = (1/k) Tr N^k.

Run:  python demos/bihamiltonian_checks.py
"""

import numpy as np

import pnorbit as pn
from pnorbit.hermsym import random_point
from pnorbit.poisson import chain_gradient, gradient_bracket, jacobi_residual

case = pn.build_case("aiii", k=1, n=3)
signs = pn.calibrate().signs
print(f"case: {case.name}; calibrated signs (s_K, s_0) = {signs}")

point = random_point(case, seed=123)
pair = pn.build_pair(case, point.g, signs)

print(f"\nKKS matrix: rank {np.linalg.matrix_rank(pair.pk, tol=1e-9)} "
      f"= dim M = {case.dim_m}")
print(f"Bruhat matrix antisymmetry: {np.abs(pair.p0 + pair.p0.T).max():.1e}")

rng = np.random.default_rng(5)
triples = [tuple(rng.choice(case.alg.dim, 3, replace=False)) for _ in range(10)]
for t in (0.0, 1.0):
    res = jacobi_residual(pair, t, triples)
    print(f"fd Jacobi residual of pi_t at t = {t:g}:  {res:.2e}")
res = jacobi_residual(pair, "kks", triples)
print(f"fd Jacobi residual of the pure KKS bracket: {res:.2e}")

print("\ninvolution of the eigenvalue functions:")
dvec = chain_gradient(pair)
for which, p in (("kks", pair.pk), ("bruhat", pair.p0)):
    br = gradient_bracket(pair, dvec.T, p)
    off = np.abs(br - np.diag(np.diag(br))).max()
    print(f"  max |{{l_i, l_j}}| under {which:<6}: {off:.2e}")

out = pn.lenard_check(pair, case.n_eig)
print("\nLenard recursion dI_(k+1) = N^* dI_k for I_k = (1/k) Tr N^k:")
for k, res in enumerate(out["steps"], start=1):
    print(f"  k = {k}: residual {res:.2e}")
print(f"trace identity |Tr N - 2 sum lambda| = {out['trace_gap']:.2e}")

lam = pn.pencil_spectrum(pair)
print(f"\naction variables at this point: {np.round(lam, 8)}")
