"""SO(7)/SO(5)xSO(2): gamma matrices, the spin module and the (a,b) chain.

The real-Grassmannian family needs the spin representation: the moment
map is not a combination of the eigenbundle idempotents, but its spin
image has nested minors whose spectra carry the chain data.  The script
builds the gammas, verifies the Clifford relations and the closed form
of the represented orbit generator, then extracts the (a_k, b_k) chain
and compares with the pencil route.

Run:  python demos/bdi_spin_chain.py
"""

import numpy as np

import pnorbit as pn
from pnorbit.hermsym import random_point
from pnorbit.spinrep import SpinRepresentation

case = pn.build_case("bdi", m=7)
rep = SpinRepresentation(7)
print(f"case: {case.name}; spinor space dimension 2^{rep.n_letters} "
      f"= {rep.dim}")
print("word basis:", rep.words)

g = rep.gammas                                   # (7, d, d)
prod = g[:, None] @ g[None]                      # G_a G_b
anti = prod + prod.swapaxes(0, 1)
worst = np.abs(anti - 2.0 * np.eye(7)[:, :, None, None] * np.eye(rep.dim)).max()
print(f"\nClifford relations {{G_a, G_b}} = 2 delta_ab: residual {worst:.1e}")

nl = rep.n_letters
target = 1j * (rep.gamma_bar_gamma(nl) - 0.5 * np.eye(rep.dim))
print(f"S(rho) = i(G_bar G - 1/2) residual: "
      f"{np.abs(rep(case.rho.real) - target).max():.1e}")

point = random_point(case, seed=11)
cs = pn.chain_spectrum(case, point.m)
print("\nchain data:")
for label, val in cs.raw_labeled():
    print(f"  {label:<4} {val:+.6f}")

print("cone inequalities |a_k| <= |a_(k-1)|, |b_k| <= |a_(k-1)| - |a_k| "
      "(a_0 = 1):")
aa = np.concatenate([[1.0], np.abs(cs.a), [0.0]])
for k in range(len(cs.b)):
    print(f"  k={k+1}: |a| drop {aa[k] - aa[k+1]:+.6f} >= |b| = "
          f"{abs(cs.b[k]):.6f}")

print("\nspin-minor cross-check: leading 2^(N-k) blocks of S(m) have")
print("spectrum i(+-a_k + sum b_j)/2:")
s_m = rep(point.m.real)
ssum = np.cumsum(cs.b)
for k in range(1, len(cs.b) + 1):
    size = 2 ** (nl - k)
    got = np.sort(np.linalg.eigvalsh(-1j * s_m[:size, :size]))
    a_k = cs.a[k - 1] if k <= len(cs.a) else 0.0
    want = np.sort([(s * a_k + ssum[k - 1]) / 2
                    for s in ([1, -1] * (size // 2) if size > 1 else [1])])
    print(f"  k={k}: size {size}, residual {np.abs(got - want).max():.1e}")

chain_vals = cs.free_values()
pencil_vals = pn.pencil_spectrum(pn.build_pair(case, point.g))
print("\neigenvalues lambda^(k)_pm = +-a_k - sum b + 1:")
print("  chain :", np.round(chain_vals, 10))
print("  pencil:", np.round(pencil_vals, 10))
print(f"  max discrepancy: {np.abs(chain_vals - pencil_vals).max():.3e}")
