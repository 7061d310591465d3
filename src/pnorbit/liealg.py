"""Classical matrix Lie algebras su(n), sp(n), so(m) with their Cartan data.

Each algebra carries an orthonormal basis under <A,B> = -Tr(AB), a regular
Cartan element H0, and the triangular-structure operator J obtained as the
spectral sign of ad_{H0}.  J induces the map C_+ = i + J (`c_plus`), the b_+
realization of g^* that the Bruhat bracket is built from.

so-algebras come in two Cartan embeddings, matching which symmetric space
they host:

* ``blocks``  - 2x2 rotation blocks down the diagonal (odd sizes keep a
  leading zero row/column); H0 carries strictly increasing block angles so
  that letter-lowering operators of the spin module are positive.
* ``split``   - rotations in the (j, n+j) planes, i.e. the [[0, a], [-a, 0]]
  form with a = diag(a_1..a_n); H0 carries decreasing angles.

so(m) is a real algebra: its basis is float64, and so is every map built
on it, so real input stays in real arithmetic and complex input takes the
complex-linear extension.  H0 is complex for every family, as J is formed
from i ad_{H0}.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConventionError

FAMILIES = ("A", "B", "C", "D")


def _su_basis(n):
    out = []
    for r in range(n):
        for s in range(r + 1, n):
            e = np.zeros((n, n), complex)
            e[r, s] = 1
            out.append((e - e.T) / np.sqrt(2))
            out.append(1j * (e + e.T) / np.sqrt(2))
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1
        d[k] = -k
        out.append(1j * np.diag(d) / np.linalg.norm(d))
    return np.array(out)


def _sp_basis(n):
    # sp(n) in the 2n x 2n block form [[A, B], [-B^dag, -A^T]], A anti-Herm,
    # B symmetric.  Cartan = the diagonal A part, diag(ia, -ia).
    N = 2 * n
    out = []

    def lift_a(a):
        z = np.zeros((N, N), complex)
        z[:n, :n] = a
        z[n:, n:] = -a.T
        return z / np.sqrt(2)

    def lift_b(b):
        z = np.zeros((N, N), complex)
        z[:n, n:] = b
        z[n:, :n] = -b.conj().T
        return z / np.sqrt(2)

    for r in range(n):
        out.append(lift_a(1j * np.outer(np.eye(n)[r], np.eye(n)[r])))
    for r in range(n):
        for s in range(r + 1, n):
            e = np.zeros((n, n))
            e[r, s] = 1
            out.append(lift_a((e - e.T) / np.sqrt(2) + 0j))
            out.append(lift_a(1j * (e + e.T) / np.sqrt(2)))
    for r in range(n):
        e = np.zeros((n, n))
        e[r, r] = 1
        out.append(lift_b(e + 0j))
        out.append(lift_b(1j * e))
    for r in range(n):
        for s in range(r + 1, n):
            e = np.zeros((n, n))
            e[r, s] = e[s, r] = 1
            out.append(lift_b(e / np.sqrt(2) + 0j))
            out.append(lift_b(1j * e / np.sqrt(2)))
    return np.array(out)


def _so_basis(m):
    out = []
    for r in range(m):
        for s in range(r + 1, m):
            e = np.zeros((m, m))
            e[r, s] = 1
            out.append((e - e.T) / np.sqrt(2))
    return np.array(out)


def _so_cartan_pairs(m, style):
    # Coordinate pairs carrying the commuting so(2) rotations.
    if style == "blocks":
        start = m % 2  # odd sizes: leading zero coordinate
        return [(start + 2 * j, start + 2 * j + 1) for j in range(m // 2)]
    if style == "split":
        if m % 2:
            raise ConventionError("split Cartan needs an even size")
        n = m // 2
        return [(j, n + j) for j in range(n)]
    raise ConventionError(f"unknown so Cartan style {style!r}")


@dataclass
class LieAlgebra:
    """A classical matrix Lie algebra with fixed Cartan conventions.

    `_finish` precomputes, next to `jmat`, the maps that turn every
    contraction against the basis into one matrix product:

    * `flat`   (dim, N^2) - the basis, one flattened matrix per row;
    * `flat_t` (N^2, dim) - the transposed matrices as columns, so that
      A.ravel() @ flat_t = [Tr(A X_b)]_b;
    * `jflat`  (dim, N^2) - row a is J(X_a) flattened (jmat^T @ flat);
    * `flat_re` (2 N^2, dim) - flat_t for the interleaved (re, im) float
      view of a complex matrix, so that real_coefficients is a real GEMM;
    * `side`   (N, dim N) - the basis side by side (`side_by_side`),
      [X_0 | X_1 | ...], so that y @ side = [y X_a]_a is one GEMM.

    Each carries the basis dtype: float64 for the so-families (B, D), whose
    basis is real, complex for su and sp.  `coefficients`,
    `from_coefficients`, `j_apply` and `ad_matrix` of real input then
    return float64 for B and D.  `ad_matrix` is one GEMM through `flat_re`;
    K = -ad_m (`poisson.kks_raw`).  Every product against these maps goes
    through `_gemm`, which keeps a one-point stack on the GEMM route of a
    longer one.
    """

    family: str
    size: int                   # ambient matrix size N
    basis: np.ndarray           # (dim, N, N), orthonormal under -Tr(AB)
    h0: np.ndarray              # regular Cartan element fixing Phi+
    jmat: np.ndarray = field(default=None, repr=False)   # J on coefficients
    flat: np.ndarray = field(default=None, repr=False)
    flat_t: np.ndarray = field(default=None, repr=False)
    jflat: np.ndarray = field(default=None, repr=False)
    flat_re: np.ndarray = field(default=None, repr=False)
    side: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return len(self.basis)

    # -- coefficient space -------------------------------------------------
    @staticmethod
    def _gemm(rows, mat):
        """rows (..., k) @ mat (k, n).  numpy takes a one-row block as a
        matrix-vector product, which rounds unlike a GEMM row, so a block
        of one row, such as a one-point stack under a broadcast axis
        (..., 1, k), is folded into its leading axes and stays a GEMM."""
        if rows.ndim > 2 and rows.shape[-2] == 1:
            return (rows.reshape(-1, rows.shape[-1]) @ mat).reshape(
                rows.shape[:-1] + mat.shape[-1:])
        return rows @ mat

    def _unflatten(self, rows):
        return rows.reshape(rows.shape[:-1] + (self.size, self.size))

    def coefficients(self, x):
        """Expansion coefficients of x in the orthonormal basis.

        x may be one matrix or a stack (..., N, N); the coefficients are
        -Tr(x X_a), one GEMM against the transposed-flattened basis, in
        the common dtype of x and the basis.
        """
        x = np.asarray(x)
        return -self._gemm(x.reshape(x.shape[:-2] + (-1,)), self.flat_t)

    def real_coefficients(self, x):
        """coefficients(x).real, as one real GEMM on the float view of x;
        a real x meets only the real-part rows of flat_re."""
        if not np.iscomplexobj(x):
            x = np.asarray(x, float)
            return self._gemm(x.reshape(x.shape[:-2] + (-1,)),
                              self.flat_re[0::2])
        x = np.ascontiguousarray(x, complex)
        return self._gemm(x.view(float).reshape(x.shape[:-2] + (-1,)),
                          self.flat_re)

    def side_by_side(self, x):
        """Matrices (d, N, N) as one (N, d N) block row [x_0 | x_1 | ...]."""
        return np.ascontiguousarray(np.swapaxes(x, 0, 1).reshape(self.size, -1))

    def from_coefficients(self, c):
        """sum_a c_a X_a for one coefficient vector or a stack (..., dim)."""
        return self._unflatten(self._gemm(np.asarray(c), self.flat))

    # -- J and friends -----------------------------------------------------
    def j_apply(self, x):
        """J(x), extended complex-linearly to g_C; x may be a stack."""
        return self._unflatten(self._gemm(self.coefficients(x), self.jflat))

    def ad_matrix(self, x):
        """ad_x on coefficients: column a holds [x, X_a]; x may be a stack."""
        # p[..., a, b] = Re Tr(x X_a X_b); -(p^T - p) keeps exact zeros at
        # -0.0, the signs that eigh sees when _finish forms J from ad_{H0}
        p = -self.real_coefficients(np.asarray(x)[..., None, :, :] @ self.basis)
        return -(np.swapaxes(p, -1, -2) - p)

    def c_plus(self, x):
        """C_+(x) = i x + J(x) for x in g, one matrix or a stack (unchecked)."""
        return 1j * x + self.j_apply(x)


def _finish(alg):
    dim, size = len(alg.basis), alg.size
    alg.flat = alg.basis.reshape(dim, size * size)
    alg.flat_t = np.ascontiguousarray(
        np.swapaxes(alg.basis, 1, 2).reshape(dim, size * size).T)
    # Re(-(x_re + i x_im) . f) = x_re . (-f_re) + x_im . f_im, interleaved
    alg.flat_re = np.empty((2 * size * size, dim))
    alg.flat_re[0::2] = -alg.flat_t.real
    alg.flat_re[1::2] = alg.flat_t.imag
    alg.side = alg.side_by_side(alg.basis)
    # J last: ad_matrix reads flat_re
    w, u = np.linalg.eigh(1j * alg.ad_matrix(alg.h0))
    sign = np.sign(np.where(np.abs(w) < 0.4, 0.0, w))
    jmat = (u @ np.diag(-1j * sign) @ u.conj().T)
    if np.abs(jmat.imag).max() > 1e-12:
        raise ConventionError("J matrix failed to be real")
    alg.jmat = jmat.real
    alg.jflat = alg.jmat.T @ alg.flat
    return alg


def build_algebra(family, n, cartan_style=None):
    """Construct su(n) (A), so(2n+1) (B), sp(n) (C) or so(2n) (D).

    For the so-families `cartan_style` selects the Cartan embedding
    ('blocks' or 'split'); defaults are B -> 'blocks', D -> 'split'.
    """
    if family not in FAMILIES:
        raise ConventionError(f"unsupported family {family!r}")
    if family == "A":
        if n < 2:
            raise ConventionError("su(n) needs n >= 2")
        h0 = 1j * np.diag(np.arange(n - 1, -1, -1.0))
        h0 -= np.trace(h0) / n * np.eye(n)
        return _finish(LieAlgebra("A", n, _su_basis(n), h0))
    if family == "C":
        if n < 1:
            raise ConventionError("sp(n) needs n >= 1")
        h0 = np.zeros((2 * n, 2 * n), complex)
        a = np.diag(np.arange(n, 0, -1.0))
        h0[:n, :n] = 1j * a
        h0[n:, n:] = -1j * a
        return _finish(LieAlgebra("C", 2 * n, _sp_basis(n), h0))

    # so-families
    size = 2 * n + 1 if family == "B" else 2 * n
    if size < 3:
        raise ConventionError("so(m) needs m >= 3")
    style = cartan_style or ("blocks" if family == "B" else "split")
    pairs = _so_cartan_pairs(size, style)
    h0 = np.zeros((size, size), complex)
    if style == "blocks":
        angles = np.arange(1.0, len(pairs) + 1)      # increasing
    else:
        angles = np.arange(len(pairs), 0.0, -1)      # decreasing
    for (r, s), th in zip(pairs, angles):
        h0[r, s] = th
        h0[s, r] = -th
    return _finish(LieAlgebra(family, size, _so_basis(size), h0))

