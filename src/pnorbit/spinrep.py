"""Gamma matrices and the spin representation of so(m) in a word basis.

Spinor states are exterior-algebra words in N letters (m = 2N or 2N+1).
Words are ordered by comparing their largest letters first, so the empty
word comes first and the leading 2^(N-k) block of any represented matrix
is the spin module of the first m-2k coordinates.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConventionError


def _word_key(w):
    return tuple(sorted(w, reverse=True))


@dataclass
class SpinBasis:
    """Ordered word basis of the 2^N dimensional spinor space."""

    n_letters: int
    odd: bool
    words: list

    @property
    def dim(self):
        return 2 ** self.n_letters

    def index(self, w):
        return self._index[tuple(sorted(w))]

    def __post_init__(self):
        self._index = {w: i for i, w in enumerate(self.words)}


def spin_basis(n_letters, odd=False):
    if n_letters < 1:
        raise ConventionError("need at least one letter")
    words = [w for p in range(n_letters + 1)
             for w in combinations(range(1, n_letters + 1), p)]
    words.sort(key=_word_key)
    return SpinBasis(n_letters, odd, words)


def _ladder_ops(basis):
    """Creation/annihilation matrices (c_i, a_i) in the word basis."""
    dim = basis.dim
    cs, ans = [], []
    for i in range(1, basis.n_letters + 1):
        c = np.zeros((dim, dim), complex)
        a = np.zeros((dim, dim), complex)
        for w in basis.words:
            col = basis.index(w)
            below = sum(1 for j in w if j < i)
            if i not in w:
                c[basis.index(tuple(sorted(w + (i,)))), col] = (-1.0) ** below
            else:
                a[basis.index(tuple(j for j in w if j != i)), col] = (-1.0) ** below
        cs.append(c)
        ans.append(a)
    return cs, ans


def gamma_matrices(n_letters, odd=False):
    """Real-coordinate gamma matrices with {G_a, G_b} = 2 delta_ab.

    Returns (basis, gammas) where gammas are indexed by the ambient matrix
    coordinate: for odd sizes the parity operator (-1)^deg comes first,
    then for each letter i the pair c_i + a_i, i(c_i - a_i).
    """
    basis = spin_basis(n_letters, odd)
    cs, ans = _ladder_ops(basis)
    gammas = []
    if odd:
        gammas.append(np.diag([(-1.0) ** len(w) for w in basis.words]).astype(complex))
    for c, a in zip(cs, ans):
        gammas.append(c + a)
        gammas.append(1j * (c - a))
    return basis, gammas


class SpinRepresentation:
    """S(X) = (1/8) X_ab [G_a, G_b] for X in so(m), m = ambient size."""

    def __init__(self, ambient_size):
        if ambient_size < 3:
            raise ConventionError("so(m) spin module needs m >= 3")
        self.ambient_size = ambient_size
        self.odd = bool(ambient_size % 2)
        self.basis, self.gammas = gamma_matrices(ambient_size // 2, self.odd)
        # precompute (1/4)[G_a, G_b] for a < b
        self._quarter_comm = {}
        for a in range(ambient_size):
            for b in range(a + 1, ambient_size):
                self._quarter_comm[(a, b)] = (
                    self.gammas[a] @ self.gammas[b] - self.gammas[b] @ self.gammas[a]
                ) / 4

    @property
    def dim(self):
        return self.basis.dim

    def __call__(self, x, tol=1e-10):
        x = np.asarray(x)
        m = self.ambient_size
        if x.shape != (m, m):
            raise ConventionError(f"expected shape ({m},{m}), got {x.shape}")
        if np.abs(x + x.T).max() > tol * max(1.0, np.abs(x).max()) or np.abs(np.imag(x)).max() > tol:
            raise ConventionError("matrix is not real antisymmetric")
        xr = np.real(x)
        s = np.zeros((self.dim, self.dim), complex)
        for (a, b), q in self._quarter_comm.items():
            if xr[a, b] != 0.0:
                s = s + xr[a, b] * q
        return s

    def gamma_bar_gamma(self, letter):
        """G_{bar i} G_i in the word basis (= 1 on words missing the letter)."""
        g1 = self.gammas[letter_index(self, letter, 0)]
        g2 = self.gammas[letter_index(self, letter, 1)]
        c = (g1 - 1j * g2) / 2
        a = (g1 + 1j * g2) / 2
        return a @ c


def letter_index(rep, letter, component):
    """Ambient coordinate index of gamma (2*letter-1) or (2*letter)."""
    off = 1 if rep.odd else 0
    return off + 2 * (letter - 1) + component

