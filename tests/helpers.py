"""Reference code shared by the tests; no test is collected here.

`batch_points_einsum` is the orbit sampler as it stood before its products
became BLAS calls: a fresh sample_rng per sample and einsums for x, exp(x)
and m.  The BLAS sampler must match it to round-off.
"""

import numpy as np

from pnorbit.hermsym import sample_rng


def cartan_element(alg, values):
    """sum_j values[j] X_{c_j} over the Cartan basis elements of alg."""
    z = np.zeros((alg.size, alg.size), complex)
    for idx, v in zip(alg.cartan_indices, values):
        z += v * alg.basis[idx]
    return z


def batch_points_einsum(case, seed, start, count):
    """(g, m) of samples start..start+count-1, by the einsum route."""
    d = case.alg.dim
    coefs = np.stack([sample_rng(seed, start + i).standard_normal(d)
                      for i in range(count)])
    x = np.einsum("sa,aij->sij", coefs, case.alg.basis)
    w, u = np.linalg.eigh(1j * x)
    g = np.einsum("...ik,...k,...jk->...ij", u, np.exp(-1j * w), u.conj())
    m = np.einsum("sij,jk,slk->sil", g, case.rho, g.conj())
    return g, m
