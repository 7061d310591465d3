"""Dense linear-algebra kernel for small matrices.

The exponential of anti-Hermitian matrices (one or a stack) through a
Hermitian eigensolve and one stacked matrix product, and the
finite-difference step shared by every fd identity.  numpy is the only
dependency.
"""

import numpy as np

DEFAULT_FD_STEP = 1e-5


def expm_antihermitian(x):
    """exp(X) for anti-Hermitian X via a Hermitian eigensolve.

    With iX = U diag(w) U^dag, exp(X) = (U e^{-iw}) U^dag: the phases scale
    the columns of U, and one (stacked) matrix product finishes it.
    Accepts a stack (..., N, N); used for batched group-element sampling.
    """
    x = np.asarray(x, dtype=complex)
    w, u = np.linalg.eigh(1j * x)
    return (u * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
