"""The bihamiltonian structure on Gr(1,3), checked end to end.

Builds both Poisson brackets at a random point once, as one BracketPair
(the tangent frame T and the restricted Nijenhuis matrix N_r), and runs
every check on that pair: the pencil is Poisson (fd Jacobi at
t = 0 and t = 1, which together with the symplectic member certifies
compatibility), the eigenvalues are in involution under both brackets, and
the Lenard recursion holds for the trace invariants I_k = (1/k) Tr N^k,
and their trace Tr N is twice the sum of the chain eigenvalues.
The rank and antisymmetry lines read the dense matrices of the independent
per-point route, kks_raw and bruhat_matrix.

Run:  python demos/bihamiltonian_checks.py
"""

import numpy as np

import pnorbit as pn
from pnorbit.hermsym import random_point
from pnorbit.poisson import (chain_gradient, gradient_bracket,
                             jacobi_residual, kks_raw)

case = pn.build_case("aiii", k=1, n=3)
signs = pn.calibrate().signs
print(f"case: {case.name}; calibrated signs (s_K, s_0) = {signs}")

point = random_point(case, seed=123)
pair = pn.build_pair(case, point.g)

k = kks_raw(case, point.m)
p0 = pn.bruhat_matrix(case, point.g)
print(f"\nKKS matrix: rank {np.linalg.matrix_rank(k, tol=1e-9)} "
      f"= dim M = {case.dim_m}")
print(f"Bruhat matrix antisymmetry: {np.abs(p0 + p0.T).max():.1e}")

rng = np.random.default_rng(5)
triples = [tuple(rng.choice(case.alg.dim, 3, replace=False)) for _ in range(10)]
jacobi = jacobi_residual(pair, triples)      # one fd flow for all three
for t in (0, 1):
    print(f"fd Jacobi residual of pi_t at t = {t}:  {jacobi[f't{t}']:.2e}")
print(f"fd Jacobi residual of the pure KKS bracket: {jacobi['kks']:.2e}")

print("\ninvolution of the eigenvalue functions:")
w = chain_gradient(pair)      # fd gradients along the 2 n_eig tangent flows
for which, br in zip(("kks", "bruhat"), gradient_bracket(pair, w.T)):
    off = np.abs(br - np.diag(np.diag(br))).max()
    print(f"  max |{{l_i, l_j}}| under {which:<6}: {off:.2e}")

out = pn.lenard_check(pair, case.n_eig)
print("\nLenard recursion dI_(k+1) = N^* dI_k for I_k = (1/k) Tr N^k:")
for k, res in enumerate(out["steps"], start=1):
    print(f"  k = {k}: residual {res:.2e}")
chain = pn.chain_spectrum(case, point.m).free_values()
trace_gap = abs(np.trace(pair.nr) - 2 * chain.sum())
print(f"trace identity |Tr N - 2 sum lambda_chain| = {trace_gap:.2e}")

lam = pn.pencil_spectrum(pair)
print(f"\naction variables at this point: {np.round(lam, 8)}")
