"""Gamma matrices and the spin representation of so(m) in a word basis.

Spinor states are exterior-algebra words in N letters (m = 2N or 2N+1).
Word j holds letter i exactly when bit i-1 of j is set (binary counting),
so the empty word comes first and the leading 2^(N-k) block of any
represented matrix is the spin module of the first m-2k coordinates.

In this order the creation operator of letter i is the Jordan-Wigner
product c_i = I_{2^(N-i)} (x) sigma^+ (x) Z^{(x)(i-1)}, Z = diag(1, -1),
and the parity operator (-1)^deg is Z^{(x)N}.
"""

from functools import reduce

import numpy as np

from .errors import ConventionError

ANTISYM_TOL = 1e-10     # SpinRepresentation: relative antisymmetry defect

_SIGMA_PLUS = np.array([[0, 0], [1, 0]])    # adds the letter of its slot
_Z = np.diag([1, -1])                       # (-1)^(letter present)


def _kron(*factors):
    return reduce(np.kron, factors, np.ones((1, 1), int))


def gamma_matrices(n_letters, odd=False):
    """Real-coordinate gamma matrices with {G_a, G_b} = 2 delta_ab.

    One (m, d, d) array indexed by the ambient matrix coordinate: for odd
    sizes the parity operator comes first, then for each letter i the pair
    c_i + a_i, i(c_i - a_i), where the annihilator a_i is c_i^T.
    """
    if n_letters < 1:
        raise ConventionError("need at least one letter")
    gammas = [_kron(*[_Z] * n_letters)] if odd else []
    for i in range(1, n_letters + 1):
        c = _kron(np.eye(2 ** (n_letters - i), dtype=int), _SIGMA_PLUS,
                  *[_Z] * (i - 1))
        gammas += [c + c.T, 1j * (c - c.T)]
    return np.array(gammas, complex)


class SpinRepresentation:
    """S(X) = (1/8) X_ab [G_a, G_b] for X in so(m), m = ambient size.

    X is one matrix (m, m) or a stack (..., m, m); S(X) is (..., d, d),
    one product of the flattened X with the (m*m, d*d) tensor
    (1/8)[G_a, G_b].  words is the ordered word basis of the d = 2^N
    dimensional spinor space, N = n_letters.
    """

    def __init__(self, ambient_size):
        if ambient_size < 3:
            raise ConventionError("so(m) spin module needs m >= 3")
        self.ambient_size = ambient_size
        self.odd = bool(ambient_size % 2)
        self.n_letters = ambient_size // 2
        self.words = [tuple(i + 1 for i in range(self.n_letters) if j >> i & 1)
                      for j in range(self.dim)]
        self.gammas = gamma_matrices(self.n_letters, self.odd)
        prod = self.gammas[:, None] @ self.gammas[None]     # G_a G_b
        self._eighth_comm = ((prod - prod.swapaxes(0, 1)) / 8).reshape(
            ambient_size ** 2, self.dim ** 2)

    @property
    def dim(self):
        return 2 ** self.n_letters

    def __call__(self, x):
        x = np.asarray(x)
        m = self.ambient_size
        if x.shape[-2:] != (m, m):
            raise ConventionError(f"expected shape (..., {m}, {m}), got {x.shape}")
        tol = ANTISYM_TOL * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))
        defect = np.abs(x + np.swapaxes(x, -1, -2)).max(axis=(-2, -1))
        if (defect > tol).any() or (np.abs(np.imag(x)) > ANTISYM_TOL).any():
            raise ConventionError("matrix is not real antisymmetric")
        stack = x.shape[:-2]
        s = np.real(x).reshape(stack + (m * m,)) @ self._eighth_comm
        return s.reshape(stack + (self.dim, self.dim))

    def gamma_bar_gamma(self, letter):
        """G_{bar i} G_i in the word basis (= 1 on words missing the letter)."""
        first = self.odd + 2 * (letter - 1)
        g1, g2 = self.gammas[first], self.gammas[first + 1]
        c = (g1 - 1j * g2) / 2
        a = (g1 + 1j * g2) / 2
        return a @ c
