"""Dense linear-algebra kernel for small matrices.

The exponential of anti-Hermitian matrices (one or a stack), and the
finite-difference step shared by every fd identity.  numpy is the only
dependency.

Every family's exponential takes one eigensolver-free kernel in real
arithmetic: scaling and squaring (Moler-Van Loan, SIAM Rev. 45, 2003;
Higham, SIMAX 26, 2005).  A real operator R is scaled by 2^-s so that
||R / 2^s||_1 < 1/2, the degree-15 Taylor polynomial of exp is evaluated
there by Horner's rule in stacked real matrix products, and the result is
squared s times.  The dropped tail is at most (1/2)^16 / 16! / (1 - 1/34)
< 8e-19 in the 1-norm, against a result of norm >= 1 (an orthogonal
matrix).  Real (antisymmetric) X, the so-families' algebra, is its own
operator.  Complex X = A + iB acts on R^2N as R = [[A, -B], [B, A]], and
exp(R) = [[Re g, -Im g], [Im g, Re g]] with g = exp(X): the first N
columns [Re g; Im g] determine it, so only they go through Horner; R is
then filled once from them and squared whole (at these sizes a 2N x 2N
product costs about what a 2N x N one does).  Each matrix of a
stack takes s from its own operator's 1-norm and is scaled by the exact
power 2^-s, so a batch of one is bitwise equal to its row in any stack.
"""

import numpy as np

from .errors import NumericalError

DEFAULT_FD_STEP = 1e-5

TAYLOR_DEGREE = 15      # degree of the Taylor polynomial
TAYLOR_THETA = 0.5      # ||R / 2^s||_1 bound at the polynomial


# 1/k! for k = 0..TAYLOR_DEGREE, the Taylor coefficients of exp
_TAYLOR_COEFS = np.cumprod([1.0] + [1.0 / k for k in range(1, TAYLOR_DEGREE + 1)])


def _taylor(op, n):
    """The first n columns (S, M, n) of the degree-TAYLOR_DEGREE Taylor
    polynomial of exp at a stack op (S, M, M), by Horner's rule,
    p <- op p + c_k [1; 0], in two buffers; the identity terms go onto
    strided views of the diagonals of their top n x n blocks."""
    m = op.shape[-1]
    p, q = _TAYLOR_COEFS[-1] * op[..., :n], np.empty((len(op), m, n))
    diag_p, diag_q = (a.reshape(len(a), m * n)[:, : n * n : n + 1] for a in (p, q))
    for c in _TAYLOR_COEFS[-2:0:-1]:
        diag_p += c
        np.matmul(op, p, out=q)
        p, q, diag_p, diag_q = q, p, diag_q, diag_p
    diag_p += 1.0
    return p


def _fill_right(op, n):
    """Complete op = [[A, -B], [B, A]] (S, 2n, 2n) in place from its first n
    columns [A; B]."""
    np.negative(op[:, n:, :n], out=op[:, :n, n:])
    op[:, n:, n:] = op[:, :n, :n]


def _expm_columns(op, n):
    """The first n columns of exp(op) for real operators op (S, M, M), by
    scaling, Taylor and squaring; op is overwritten.  n = M is exp(op).
    n = M / 2 takes op = [[A, -B], [B, A]]: Taylor runs on its first n
    columns, the operator is filled once from them and squared whole."""
    m = op.shape[-1]
    # s per matrix from ||op||_1 / theta = f 2^e, f in [1/2, 1): s = max(e, 0)
    # is the smallest s >= 0 with ||op / 2^s||_1 < theta.  The first n
    # columns hold every column sum of op ([-B; A] sums as [A; B] does)
    norm = np.abs(op[..., :n]).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(norm / TAYLOR_THETA)[1], 0)
    np.ldexp(op, -s[:, None, None], out=op)
    p = _taylor(op, n)
    if n < m:
        op[..., :n] = p
        _fill_right(op, n)
        p = op
    q = np.empty_like(p)
    for j in range(s.max(initial=0)):
        # the whole stack is squared; rows already squared s times keep p
        np.matmul(p, p, out=q)
        done = s <= j
        if done.any():
            np.copyto(q, p, where=done[:, None, None])
        p, q = q, p
    return p[..., :n]


def expm_antihermitian(x):
    """exp(X) for anti-Hermitian X, one matrix (N, N) or a stack (..., N, N);
    used for batched group-element sampling.

    P(R / 2^s)^(2^s) in real arithmetic, P the degree TAYLOR_DEGREE Taylor
    polynomial, s per matrix the smallest s >= 0 with ||R / 2^s||_1 <
    TAYLOR_THETA: R = X for real (antisymmetric) X, with a real result;
    R = [[A, -B], [B, A]] for complex X = A + iB, of which only the first
    N columns go through the Taylor polynomial before R is squared whole
    (module docstring).  No eigensolver is called.  Non-finite input
    raises NumericalError before any work.
    """
    x = np.asarray(x)
    if not np.isfinite(x).all():
        raise NumericalError("matrix exponential of non-finite input")
    lead, n = x.shape[:-2], x.shape[-1]
    x = x.reshape(-1, n, n)
    if not np.iscomplexobj(x):
        return _expm_columns(np.array(x, float), n).reshape(lead + (n, n))
    op = np.empty((len(x), 2 * n, 2 * n))
    op[:, :n, :n], op[:, n:, :n] = x.real, x.imag
    _fill_right(op, n)
    p = _expm_columns(op, n)
    g = np.empty(x.shape, complex)
    g.real, g.imag = p[:, :n], p[:, n:]
    return g.reshape(lead + (n, n))
