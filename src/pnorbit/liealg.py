"""Classical matrix Lie algebras su(n), sp(n), so(m) with their Cartan data.

Each algebra carries an orthonormal basis under <A,B> = -Tr(AB), a regular
Cartan element H0, and the triangular-structure operator J obtained as the
spectral sign of ad_{H0}.  J induces the maps C_pm = i +/- J, the Iwasawa
splitting g_C = g (+) b_pm, and the Manin pairing Im Tr.

so-algebras come in two Cartan embeddings, matching which symmetric space
they host:

* ``blocks``  - 2x2 rotation blocks down the diagonal (odd sizes keep a
  leading zero row/column); H0 carries strictly increasing block angles so
  that letter-lowering operators of the spin module are positive.
* ``split``   - rotations in the (j, n+j) planes, i.e. the [[0, a], [-a, 0]]
  form with a = diag(a_1..a_n); H0 carries decreasing angles.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConventionError

FAMILIES = ("A", "B", "C", "D")


def _su_basis(n):
    out, cartan = [], []
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
        cartan.append(len(out))
        out.append(1j * np.diag(d) / np.linalg.norm(d))
    return np.array(out), cartan


def _sp_basis(n):
    # sp(n) in the 2n x 2n block form [[A, B], [-B^dag, -A^T]], A anti-Herm,
    # B symmetric.  Cartan = the diagonal A part, diag(ia, -ia).
    N = 2 * n
    out, cartan = [], []

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
        cartan.append(len(out))
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
    return np.array(out), cartan


def _so_basis(m):
    out = []
    index = {}
    for r in range(m):
        for s in range(r + 1, m):
            e = np.zeros((m, m))
            e[r, s] = 1
            index[(r, s)] = len(out)
            out.append(((e - e.T) / np.sqrt(2)).astype(complex))
    return np.array(out), index


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
    * `side`   (N, dim N) - the basis side by side, [X_0 | X_1 | ...], so
      that y @ side = [y X_a]_a is one GEMM.
    """

    family: str
    n: int                      # family parameter (su(n), sp(n), so(n))
    size: int                   # ambient matrix size N
    basis: np.ndarray           # (dim, N, N), orthonormal under -Tr(AB)
    cartan_indices: list        # basis indices spanning t
    h0: np.ndarray              # regular Cartan element fixing Phi+
    cartan_style: str = ""      # so-families only
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
    def _unflatten(self, rows):
        return rows.reshape(rows.shape[:-1] + (self.size, self.size))

    def coefficients(self, x):
        """Expansion coefficients of x in the orthonormal basis (complex).

        x may be one matrix or a stack (..., N, N); the coefficients are
        -Tr(x X_a), one GEMM against the transposed-flattened basis.
        """
        x = np.asarray(x, complex)
        return -(x.reshape(x.shape[:-2] + (-1,)) @ self.flat_t)

    def real_coefficients(self, x):
        """coefficients(x).real, as one real GEMM on the float view of x."""
        x = np.ascontiguousarray(x, complex)
        return x.view(float).reshape(x.shape[:-2] + (-1,)) @ self.flat_re

    def from_coefficients(self, c):
        """sum_a c_a X_a for one coefficient vector or a stack (..., dim)."""
        return self._unflatten(np.asarray(c) @ self.flat)

    def membership_residual(self, x, complex_span=False):
        """Distance of x from g (or g_C when complex_span) via reconstruction."""
        c = self.coefficients(x)
        if not complex_span:
            c = c.real
        return np.abs(x - self.from_coefficients(c)).max()

    def check_member(self, x, tol=1e-10, complex_span=False):
        res = self.membership_residual(x, complex_span)
        if res > tol * max(1.0, np.abs(x).max()):
            which = "g_C" if complex_span else "g"
            raise ConventionError(f"matrix is not in {which}: residual {res:.3e}")

    # -- J and friends -----------------------------------------------------
    def j_apply(self, x):
        """J(x), extended complex-linearly to g_C; x may be a stack."""
        return self.from_coefficients(self.coefficients(x) @ self.jmat.T)

    def j_apply_stack(self, coefs):
        """J on a stack of coefficient vectors, returning matrices."""
        return self._unflatten(coefs @ self.jflat)

    def ad_matrix(self, x):
        """ad_x in the orthonormal basis: column a = coefficients of [x, X_a]."""
        comm = (np.einsum("ij,ajk->aik", x, self.basis)
                - np.einsum("aij,jk->aik", self.basis, x))
        return -np.einsum("bij,aji->ba", self.basis, comm).real

    def c_plus(self, x):
        """C_+(x) = i x + J(x) for x in g, one matrix or a stack (unchecked)."""
        return 1j * x + self.j_apply_stack(self.real_coefficients(x))

    def iwasawa_split(self, z, side="+"):
        """Split z in g_C as z = x + C_pm(y), x, y in g; returns (x, y).

        One matrix or a stack (unchecked).  Closed form: write z = a + i b
        with a, b in g (anti-Hermitian and i-Hermitian parts); then y = b
        and x = a -/+ J(b).
        """
        z_dag = np.conj(np.swapaxes(z, -1, -2))
        a = (z - z_dag) / 2
        b = (z + z_dag) / 2j
        jb = self.j_apply_stack(self.real_coefficients(b))
        return (a - jb if side == "+" else a + jb), b


def _negate_h0(alg):
    """The deterministic second calibration branch: flip the Weyl chamber."""
    return _finish(LieAlgebra(alg.family, alg.n, alg.size, alg.basis,
                              alg.cartan_indices, -alg.h0, alg.cartan_style))


def _finish(alg):
    w, u = np.linalg.eigh(1j * alg.ad_matrix(alg.h0))
    sign = np.sign(np.where(np.abs(w) < 0.4, 0.0, w))
    jmat = (u @ np.diag(-1j * sign) @ u.conj().T)
    if np.abs(jmat.imag).max() > 1e-12:
        raise ConventionError("J matrix failed to be real")
    alg.jmat = jmat.real
    dim, size = len(alg.basis), alg.size
    alg.flat = alg.basis.reshape(dim, size * size)
    alg.flat_t = np.ascontiguousarray(
        np.swapaxes(alg.basis, 1, 2).reshape(dim, size * size).T)
    alg.jflat = alg.jmat.T @ alg.flat
    # Re(-(x_re + i x_im) . f) = x_re . (-f_re) + x_im . f_im, interleaved
    alg.flat_re = np.empty((2 * size * size, dim))
    alg.flat_re[0::2] = -alg.flat_t.real
    alg.flat_re[1::2] = alg.flat_t.imag
    alg.side = np.ascontiguousarray(
        np.swapaxes(alg.basis, 0, 1).reshape(size, dim * size))
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
        basis, cartan = _su_basis(n)
        h0 = 1j * np.diag(np.arange(n - 1, -1, -1.0))
        h0 -= np.trace(h0) / n * np.eye(n)
        return _finish(LieAlgebra("A", n, n, basis, cartan, h0))
    if family == "C":
        if n < 1:
            raise ConventionError("sp(n) needs n >= 1")
        basis, cartan = _sp_basis(n)
        h0 = np.zeros((2 * n, 2 * n), complex)
        a = np.diag(np.arange(n, 0, -1.0))
        h0[:n, :n] = 1j * a
        h0[n:, n:] = -1j * a
        return _finish(LieAlgebra("C", n, 2 * n, basis, cartan, h0))

    # so-families
    size = 2 * n + 1 if family == "B" else 2 * n
    if size < 3:
        raise ConventionError("so(m) needs m >= 3")
    style = cartan_style or ("blocks" if family == "B" else "split")
    basis, index = _so_basis(size)
    pairs = _so_cartan_pairs(size, style)
    cartan = [index[p] for p in pairs]
    h0 = np.zeros((size, size), complex)
    if style == "blocks":
        angles = np.arange(1.0, len(pairs) + 1)      # increasing
    else:
        angles = np.arange(len(pairs), 0.0, -1)      # decreasing
    for (r, s), th in zip(pairs, angles):
        h0[r, s] = th
        h0[s, r] = -th
    return _finish(LieAlgebra(family, n, size, basis, cartan, h0, style))


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def im_tr_pairing(a, b):
    """The Manin-triple pairing Im Tr(AB)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConventionError(f"incompatible shapes {a.shape} / {b.shape}")
    return float(np.einsum("ij,ji->", a, b).imag)


def j_operator(alg, x, tol=1e-10):
    """J(x) for x in g.  Vanishes on t, squares to -1 on the root part."""
    alg.check_member(x, tol)
    return alg.j_apply(x)


def c_plus(alg, x, tol=1e-10):
    """C_+(x) = i x + J(x), the b_+ realization of x in g^*."""
    alg.check_member(x, tol)
    return alg.c_plus(x)


def c_minus(alg, x, tol=1e-10):
    """C_-(x) = i x - J(x)."""
    alg.check_member(x, tol)
    return 1j * x - alg.j_apply(x)


def iwasawa_project(alg, z, side="+", tol=1e-10):
    """Split z in g_C as z = x + C_pm(y) with x, y in g (LieAlgebra.iwasawa_split)."""
    z = np.asarray(z, complex)
    alg.check_member(z, tol, complex_span=True)
    if side not in ("+", "-"):
        raise ConventionError(f"side must be '+' or '-', got {side!r}")
    return alg.iwasawa_split(z, side)
