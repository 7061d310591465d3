"""Dense linear-algebra kernel for small matrices.

The exponential of anti-Hermitian matrices (one or a stack) through one
symmetric eigensolve and stacked matrix products, and the
finite-difference step shared by every fd identity.  Complex input takes
a Hermitian eigensolve in complex arithmetic; real input (antisymmetric
matrices, the so-families' algebra) stays in real arithmetic throughout.
numpy is the only dependency.
"""

import numpy as np

DEFAULT_FD_STEP = 1e-5


def expm_antihermitian(x):
    """exp(X) for anti-Hermitian X via a symmetric eigensolve.

    Complex X: with iX = U diag(w) U^dag, exp(X) = (U e^{-iw}) U^dag, the
    phases scaling the columns of U.  Real (antisymmetric) X: with
    X^2 = V diag(-theta^2) V^T, exp(X) = V cos(theta) V^T
    + X V sinc(theta) V^T, all real; the result is real too.  Accepts a
    stack (..., N, N); used for batched group-element sampling.
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        x = np.asarray(x, float)
        w, v = np.linalg.eigh(x @ x)
        theta = np.sqrt(np.maximum(-w, 0.0))[..., None, :]
        cols = v * np.cos(theta) + (x @ v) * np.sinc(theta / np.pi)
        return cols @ np.swapaxes(v, -1, -2)
    w, u = np.linalg.eigh(1j * x)
    return (u * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
