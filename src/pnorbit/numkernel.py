"""Dense linear-algebra kernel for small matrices.

The exponential of anti-Hermitian matrices (one or a stack) through a
Hermitian eigensolve, and the finite-difference step shared by every fd
identity.  numpy is the only dependency.
"""

import numpy as np

DEFAULT_FD_STEP = 1e-5


def expm_antihermitian(x):
    """exp(X) for anti-Hermitian X via a Hermitian eigensolve.

    Accepts a stack (..., N, N); used for batched group-element sampling.
    """
    x = np.asarray(x, dtype=complex)
    w, u = np.linalg.eigh(1j * x)
    phase = np.exp(-1j * w)
    return np.einsum("...ik,...k,...jk->...ij", u, phase, u.conj())
