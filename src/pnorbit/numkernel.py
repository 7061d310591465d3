"""Dense linear-algebra kernel for small matrices.

The exponential of anti-Hermitian matrices (one or a stack), and the
finite-difference step shared by every fd identity.  numpy is the only
dependency.

Complex input takes one Hermitian eigensolve in complex arithmetic.  Real
input (antisymmetric matrices, the so-families' algebra) takes no
eigensolver: scaling and squaring (Moler-Van Loan, SIAM Rev. 45, 2003;
Higham, SIMAX 26, 2005).  X is scaled by 2^-s so that ||X / 2^s||_1 < 1/2,
the degree-15 Taylor polynomial of exp is evaluated there by Horner's rule
in stacked real matrix products, and the result is squared s times.  The
dropped tail is at most (1/2)^16 / 16! / (1 - 1/34) < 8e-19 in the 1-norm,
against a result of norm >= 1 (an orthogonal matrix).  Each matrix of a
stack takes s from its own 1-norm and is scaled by the exact power 2^-s,
so a batch of one is bitwise equal to its row in any stack.
"""

import numpy as np

from .errors import NumericalError

DEFAULT_FD_STEP = 1e-5

TAYLOR_DEGREE = 15      # real branch: degree of the Taylor polynomial
TAYLOR_THETA = 0.5      # real branch: ||X / 2^s||_1 bound at the polynomial


# 1/k! for k = 0..TAYLOR_DEGREE, the Taylor coefficients of exp
_TAYLOR_COEFS = np.cumprod([1.0] + [1.0 / k for k in range(1, TAYLOR_DEGREE + 1)])


def _taylor(xs):
    """The degree-TAYLOR_DEGREE Taylor polynomial of exp at a stack (S, N, N)
    by Horner's rule, p <- xs p + c_k 1, in two buffers; the identity terms
    go onto strided views of their diagonals."""
    n = xs.shape[-1]
    p, q = _TAYLOR_COEFS[-1] * xs, np.empty_like(xs)
    diag_p, diag_q = (a.reshape(len(a), n * n)[:, :: n + 1] for a in (p, q))
    for c in _TAYLOR_COEFS[-2:0:-1]:
        diag_p += c
        np.matmul(xs, p, out=q)
        p, q, diag_p, diag_q = q, p, diag_q, diag_p
    diag_p += 1.0
    return p


def _expm_real(x):
    """exp(X) of real matrices (..., N, N) by scaling, Taylor and squaring."""
    lead, n = x.shape[:-2], x.shape[-1]
    x = x.reshape(-1, n, n)
    # s per matrix from ||X||_1 / theta = f 2^e, f in [1/2, 1): s = max(e, 0)
    # is the smallest s >= 0 with ||X / 2^s||_1 < theta
    s = np.maximum(np.frexp(np.abs(x).sum(axis=-2).max(axis=-1) / TAYLOR_THETA)[1], 0)
    p = _taylor(np.ldexp(x, -s[:, None, None]))
    for j in range(s.max(initial=0)):
        # the whole stack is squared; rows already squared s times keep p
        sq = p @ p
        done = s <= j
        if done.any():
            np.copyto(sq, p, where=done[:, None, None])
        p = sq
    return p.reshape(lead + (n, n))


def expm_antihermitian(x):
    """exp(X) for anti-Hermitian X, one matrix (N, N) or a stack (..., N, N);
    used for batched group-element sampling.

    Complex X: with iX = U diag(w) U^dag, exp(X) = (U e^{-iw}) U^dag, the
    phases scaling the columns of U.  Real (antisymmetric) X, in real
    arithmetic with a real result: P(X / 2^s)^(2^s), P the degree
    TAYLOR_DEGREE Taylor polynomial, s per matrix the smallest s >= 0 with
    ||X / 2^s||_1 < TAYLOR_THETA (module docstring).  Non-finite input
    raises NumericalError before any work.
    """
    x = np.asarray(x)
    if not np.isfinite(x).all():
        raise NumericalError("matrix exponential of non-finite input")
    if not np.iscomplexobj(x):
        return _expm_real(np.asarray(x, float))
    w, u = np.linalg.eigh(1j * x)
    return (u * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
