"""Reference code shared by the tests; no test is collected here.

`batch_points_einsum` is the orbit sampler as it stood before its products
became BLAS calls: a fresh sample_rng per sample and einsums for x, exp(x)
and m.  The BLAS sampler must match it to round-off.

`bdi_chain_eigvalsh` is the bdi chain as it stood before a_k became a
Frobenius norm: a_k from the top eigenvalue of B^T B per block B.

`nijenhuis_restricted_inverse` is the restricted Nijenhuis matrix by its
definition, (T^T P0 T)(T^T PK T)^-1 on the tangent basis T, which the
base-frame form in the library must match to round-off.
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


def nijenhuis_restricted_inverse(pair):
    """(T^T P0 T) inv(T^T PK T) on the pair's tangent basis T (stacks allowed)."""
    t = pair.tangent
    tt = np.swapaxes(t, -1, -2)
    return (tt @ pair.p0 @ t) @ np.linalg.inv(tt @ pair.pk @ t)


def bdi_chain_eigvalsh(case, ms):
    """chain_batch(case, ms) of a bdi case, with each a_k of a block of size
    >= 3 read as sqrt of the top eigenvalue of B^T B."""
    from pnorbit.spectrum import chain_batch
    batch = chain_batch(case, ms)
    a = batch["a"].copy()
    amb = case.alg.size
    for k in range(1, amb // 2 + (amb % 2)):
        size = amb - 2 * k
        if size >= 3:
            blk = ms[:, :size, :size]
            w = np.linalg.eigvalsh(np.swapaxes(blk, 1, 2) @ blk)
            a[:, k - 1] = np.sqrt(np.maximum(w[:, -1], 0.0))
    return {**batch, "a": a}
