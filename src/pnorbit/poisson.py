"""Bruhat and KKS Poisson matrices in moment coordinates, and the pencil.

Coordinates are F_a(m) = <m, X_a> over the orthonormal algebra basis.  The
KKS (Lie-Poisson) matrix is PK = s_K <m, [X_a, X_b]>; the Bruhat matrix is

    P0[a,b] = -s_0 Im Tr( g-part(Ad_{g^-1} C_+(xi_a)) . b_+-part(Ad_{g^-1} C_+(xi_b)) )

with xi_a = [m, X_a] (the right-translated differential of F_a).  The
convention is (s_K, s_0) = CALIBRATED_SIGNS = (+1, -1), which
`verify.calibrate` certifies on every run; every formula in the code is
written at it, so the bracket layer carries no sign.

Both matrices are carried over from the base point rho.  A = Ad_{g^-1} on
coefficient rows, A[a,b] = -Re Tr(g^-1 X_a g X_b), is orthogonal, as g is
unitary.  With K = kks_raw(case, m) and K0 = kks_raw(case, rho),
invariance of <,> gives

    K[a,b] = <g rho g^-1, [X_a, X_b]> = <rho, [g^-1 X_a g, g^-1 X_b g]>,
    so K = A K0 A^T.

`bruhat_matrix` evaluates the Iwasawa tensor in coefficient space, as the
r-matrix form Ad_g J Ad_g^-1 - J pulled back through K (Lu-Weinstein):

    P0 = -s_0 K D K = K D K,    D = A J A^T - J.

Derivation: xi_a has coefficient row K[a].  Ad_{g^-1} is complex linear,
so z_a = Ad_{g^-1} C_+(xi_a) = i u_a + w_a with u_a = Ad_{g^-1} xi_a
(row K[a] A) and w_a = Ad_{g^-1} J xi_a (row K[a] J^T A).  The Iwasawa
split of z = i u + w has g-part x = w - J u and b_+-part C_+(u); since x,
u and J u are in g, Im Tr(x C_+(u)) = Tr(x u) = -<x, u>.  Hence
P0[a,b] = s_0 <x_a, u_b> = s_0 K[a] (J^T A - A J^T) A^T K[b]^T, which with
A A^T = 1, J^T = -J and K^T = -K is the form above.  The einsum form of the
Iwasawa expression is kept as the oracle in the tests.

Neither bracket needs A itself, only the tangent frame T = A T0.  K0
vanishes on h and maps the tangent space range(T0) into itself, so
K0 = T0 K_T T0^T; with A^T T = T0,

    K = T K_T T^T,    T^T D T = J_T - T^T J T,
    P0 = K D K = T K_T (J_T - T^T J T) K_T T^T = T N_r K_T T^T,

where N_r = K_T (J_T - T^T J T) is the restricted Nijenhuis matrix: as
T^T PK T = K_T and T^T P0 T = N_r K_T, N_r = (T^T P0 T)(T^T PK T)^-1, and
the pencil reads it without P0, K or an inverse.  T itself needs no A:
T[a, j] is the coefficient of g Y_j g^-1 on X_a, for the tangent basis
Y_j = sum_b T0[b, j] X_b of Case.tangent_side, so T^T is the adjoint
kernel at g^dag with the Y_j as its side (`_tangent`), a 2 n_eig x dim
read in place of the dim x dim A.

Everything per point therefore follows from T and the case's base data,
all from the one ad_rho of hermsym._finish_case: the tangent basis
Case.tangent = T0 and the restrictions Case.k_t = K_T = T0^T K0 T0 and
Case.j_t = J_T = T0^T J T0 of K0 = -ad_rho (kks_raw at rho) and J.  No
inverse is needed: ad_rho is the invariant complex structure on the
tangent space (Helgason, ch. VIII), so K0^2 = -T0 T0^T, the tangent
projector, and K_T^2 = -1.  A case is certified when it is built,
max|K0^2 + T0 T0^T| <= hermsym.CSTRUCT_TOL (measured <= 9e-16 up to
aiii:k=5,n=10, diii:n=8 and bdi:m=13), and `build_pair` certifies T: a
point with max|T^T T - 1| > ORTHO_TOL raises.  With T^T T = 1,
K = T K_T T^T has K^2 = -T T^T, hence K^+ = -K.

So a `BracketPair` is T and N_r, and no reader forms a dim x dim bracket
(the r-matrix form of Lu-Weinstein and Kosmann-Schwarzbach-Magri).  A
function with fundamental-flow derivatives dvec_a = d/dh f(exp(h X_a) g)
has gradient coefficients c = K dvec, and with w = T^T dvec and
K_T^2 = -1 every bracket of P0 + t PK is

    {f, g}_t = c_f^T (P0 + t PK) c_g = w_f^T K_T (N_r + t) w_g.

N = P0 PK^+ = -P0 PK acts on coefficient columns as T N_r T^T (in closed
form N v = [-J(v), m] + v), and so does N^* on flow derivatives: on w it
is N_r.

Tangent-frame flows.  Every reader needs w, never dvec, so the fd layer
differentiates along the 2 n_eig tangent directions alone and returns w.
As sum_a T[a, j] X_a = g Y_j g^-1 and exp(h g Y_j g^-1) g = g exp(h Y_j),
w_j = sum_a T[a, j] dvec_a is the derivative along g exp(h Y_j): exact,
by linearity of the derivative in its direction.  Nothing is lost.  A
function on the orbit M = G/H (chain eigenvalues, coordinates of m,
entries of K and P0) is constant along g exp(h Z) for Z in h, so dvec
vanishes on Ad_g h, the complement of range(T) = range(K): the
dim - 2 n_eig dropped directions held only the normal part
dvec - T T^T dvec, whose fd value is noise, below 1e-10 of the function's
values once extrapolated in h (tests/test_poisson.py).  N_r, which the
Lenard flow differences, is no such function: T(g k) = T(g) R_k for k in
H, with R_k commuting with K_T and J_T, so along g exp(h Z) N_r moves by
a commutator [N_r, omega] and its normal part is O(1).  lenard_check
reads dN_r only through Tr(N_r^(k-1) dN_r), which vanishes on such a
commutator.  Each point takes 2 dim_m flow points in place of 2 dim
(diii:n=6: 60 in place of 132).

No flow point is formed: each is read through its base point.  The steps
s = exp(+-h Y_j) are case constants, and so are their moments s rho s^dag
and frames Z = A(s) T0 (the flow data, formed once per h and held by
the case).  As Ad_{g s} = Ad_g Ad_s, A(g s) = A(g) A(s), so the flow
point g s has moment g (s rho s^dag) g^dag, frame T = A(g) Z and, with
M = A^T J A,

    T^T J T = Z^T M Z,    N_r = K_T (J_T - Z^T M Z).

A and M are formed once per base point, and each flow point then costs
one M Z and one Z^T (M Z) (diii:n=6: about 0.19 M multiply-adds, against
0.58 M for its own adjoint read and N_r).  A FlowChunk hands the m, the
rows of T and N_r of a run of flow points to the functions being
differentiated.

Real forms.  For the so-families (diii, bdi) rho, the algebra basis and
every map on it (liealg), and the sampled g and m are real (hermsym), and
so are the flow data and A at a real g.  A real g meets the real `side`
of the algebra and the real-part rows of its coefficient map
(real_coefficients), so T and A, and with them N_r and the Lenard and
Jacobi flows, are formed by real GEMMs alone, as are K, P0 and
both N v routes at a real m.  aiii and ci keep complex g, and a complex g
of an so-family takes the complex route to the same T up to round-off.
J is formed once per algebra (liealg), the same for either route.

`kks_raw` (K = -ad_m) and `bruhat_matrix` take leading stack axes and are
the only dense dim x dim brackets: the independent per-point route (with
the full A) that calibration, the coset check and the oracle tests
compare with the pair.

Stack contract, one for the whole module: `build_pair` takes one g
(N, N) or a stack (..., N, N), the pair's T and N_r then carry the same
leading axes, and every function that takes a pair takes it stacked,
with vectors and flow derivatives carrying the same axes (`nijenhuis_apply`
and `connection_check`, which holds it to the closed form N v, broadcast
more leading axes of v).  A single point
is a batch of one through the same code, and no point's pair is built
twice: `pair[rows]` reads rows of a stack (cached N_r too) and
`BracketPair.join` restacks them.  Checks run per row with the
per-point scales and report the largest value over the stack; a stack
raises whenever one of its rows would.  The fd checks read case, g and m
from the pair and build none of their own; `nstar_eigen_residual` takes
the pair's `chain_gradient`, which the involution checks share.  Each fd
flow reads from its FlowChunk only what it needs: the chain and the
calibration flow read m; the Lenard flow reads N_r, 2 n_eig square, and
lenard_check contracts its derivative once per base point; one Jacobi
flow reads N_r and only the needed rows of T, A[needed] Z, forms only the
bracketed entries of K and P0 from them, and serves the KKS bracket and
pi_t at t = 0 and 1, as d(P0 + t K) = dP0 + t dK.

Stack sizing belongs to the bracket layer alone: a caller hands over
whole stacks, and one byte budget, _FLOW_CHUNK_BYTES, bounds the
intermediates of each call inside it.  `_adjoint` runs any stack in
chunks of `_budget_points(case, rows)` points, counting its two side
products at the element size of the case's own side, float64 for diii
and bdi, whose chunks therefore hold twice the points that complex
entries of the same shape would; rows = 2 n_eig for the tangent reader,
dim for A.  `_flow_directions` gives the tangent directions of an fd
flow call, both signs and all the pair's points: it counts the float64
M Z products, the largest any flow forms (diii:n=6 at 3 points: 2
directions).  The chain flow of `chain_gradient` forms no M Z; its runs
count the flow points' m at the side's element size.  What the budget
does not bound is the stack the caller holds: a pair keeps T for every
point, points x dim x dim_m x 8 bytes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectrum as _spectrum
from .errors import ConventionError, NumericalError
from .hermsym import OrbitPoint, conjugate_rho
from .numkernel import DEFAULT_FD_STEP, expm_antihermitian

CALIBRATED_SIGNS = (1, -1)      # (s_K, s_0); see verify.calibrate
TANGENT_TOL = 1e-9              # nijenhuis_apply: relative normal component
IMAG_TOL = 1e-8                 # pencil_spectrum: relative imaginary part
PAIRING_TOL = 1e-8              # pencil_spectrum: gap within a doubled pair
ORTHO_TOL = 1e-9                # build_pair: max|T^T T - 1|, the rank certificate


def _dagger(x):
    # ndarray.conj() of a real array is the array itself; np.conj copies it
    return np.swapaxes(x, -1, -2).conj()


def kks_raw(case, m):
    """K_ab = <m, [X_a, X_b]>, the unsigned Lie-Poisson matrix: K = -ad_m.

    m may be a stack (..., N, N); K then has shape (..., dim, dim).
    """
    return -case.alg.ad_matrix(m)


def _adjoint(case, g, side=None):
    """A = Ad_{g^-1} on coefficient rows, A[..., a, b] = -Re Tr(g^-1 X_a g X_b)
    (g may be a stack).  With the side of other matrices Y_j of the algebra
    (LieAlgebra.side_by_side) in place of the basis, row j is the
    coefficient row of g^-1 Y_j g; at g^dag and Case.tangent_side that is
    T^T = (A T0)^T.  A real g of an so-family meets the real side and the
    real coefficient map: two real GEMMs and a real coefficient read.

    Any stack goes through in chunks of _budget_points(case, rows) points,
    each written into the one (..., rows, dim) output, so the side products
    of a call stay within the byte budget whatever its stack."""
    alg = case.alg
    side = alg.side if side is None else side
    n = alg.size
    rows = side.shape[-1] // n
    flat = np.reshape(g, (-1, n, n))
    out = np.empty((len(flat), rows, alg.dim))
    step = _budget_points(case, rows)
    for i in range(0, len(flat), step):
        part = flat[i:i + step]
        # g^dag Y_j side by side, read as rows (i, j); then every block
        # times g.  The first product is a temporary, so at most two
        # (chunk, rows, N, N) arrays are held at once: gxg and the
        # coefficient read's copy of it
        gxg = ((_dagger(part) @ side).reshape((-1, n * rows, n))
               @ part).reshape((-1, n, rows, n))
        out[i:i + step] = alg.real_coefficients(np.swapaxes(gxg, -3, -2))
    return out.reshape(np.shape(g)[:-2] + out.shape[1:])


def _tangent(case, g):
    """(..., dim, 2 n_eig) tangent frame T = A T0 at g (stacks allowed),
    read without A: T^T is _adjoint at g^dag with Case.tangent_side."""
    tt = _adjoint(case, _dagger(np.asarray(g)), case.tangent_side)
    return np.swapaxes(tt, -1, -2)


def bruhat_matrix(case, g):
    """The Bruhat-Poisson matrix K (A J A^T - J) K at the coset of g, with
    K = kks_raw(case, g rho g^dag) and the full A = Ad_{g^-1}: the
    per-point route, independent of the pair's tangent frame.  g may be a
    stack (..., N, N), taken in chunks of _budget_points(case, dim): they
    bound kks_raw's (chunk, dim, N, N) product as well as A's."""
    lead, step = np.shape(g)[:-2], _budget_points(case, case.alg.dim)
    flat, jmat = np.reshape(g, (-1,) + np.shape(g)[-2:]), case.alg.jmat
    parts = []
    for i in range(0, len(flat), step):
        k = kks_raw(case, conjugate_rho(case, flat[i:i + step]))
        a = _adjoint(case, flat[i:i + step])
        parts.append(k @ (a @ jmat @ np.swapaxes(a, -1, -2) - jmat) @ k)
    return np.concatenate(parts).reshape(lead + jmat.shape)


@dataclass
class BracketPair:
    """Both Poisson brackets at one orbit point or a stack of them, in the
    tangent frame: the point, its frame T = A T0 and, formed on first read
    and cached, nr = N_r = K_T (J_T - T^T J T), with the stack's leading
    axes.  Every bracket reads T and N_r: with w = T^T dvec,
    {f, g}_t = w_f^T K_T (N_r + t) w_g (see the module docstring).  Rows
    of a built pair are read as pair[rows] and stacked by join."""

    point: object                         # hermsym.OrbitPoint
    tangent: np.ndarray = field(repr=False)   # (..., dim, 2 n_eig), orthonormal

    @property
    def case(self):
        return self.point.case

    @cached_property
    def nr(self):
        """(..., 2 n_eig, 2 n_eig) N_r, the matrix of N = P0 PK^+ on T."""
        t = self.tangent
        return _restricted(self.case,
                           np.swapaxes(t, -1, -2) @ (self.case.alg.jmat @ t))

    def __getitem__(self, rows):
        """The pair at rows of the stack: g, m, T and, once formed, N_r."""
        view = BracketPair(OrbitPoint(self.case, self.point.g[rows],
                                      self.point.m[rows]), self.tangent[rows])
        if "nr" in vars(self):
            view.nr = self.nr[rows]
        return view

    @classmethod
    def join(cls, pairs):
        """The rows of pairs stacked in order, N_r formed for every part."""
        g, m, t, nr = (np.concatenate(parts) for parts in zip(*(
            (p.point.g, p.point.m, p.tangent, p.nr) for p in pairs)))
        joined = cls(OrbitPoint(pairs[0].case, g, m), t)
        joined.nr = nr
        return joined


def build_pair(case, g, *, m=None):
    """Both brackets at g, one group element (N, N) or a stack (S, N, N).

    Takes the tangent frame T and the moment m = g rho g^dag (the caller's
    m if given, such as the one hermsym.batch_points returns with g: the
    same product, so the pair is unchanged); N_r follows from T and the
    case's certified base data when read (see the module docstring), and
    no matrix is decomposed.  The rank of K is certified through T: a row
    with max|T^T T - 1| > ORTHO_TOL raises.
    """
    g = np.asarray(g)
    t = _tangent(case, g)
    defect = np.abs(np.swapaxes(t, -1, -2) @ t
                    - np.eye(case.dim_m)).max(axis=(-2, -1))
    if (defect > ORTHO_TOL).any():
        raise NumericalError(
            f"KKS rank not certified: max|T^T T - 1| = {defect.max():.3e} "
            f"> {ORTHO_TOL:g}")
    if m is None:
        m = conjugate_rho(case, g)
    return BracketPair(OrbitPoint(case, g, m), t)


# ---------------------------------------------------------------------------
# Nijenhuis operator, two routes
# ---------------------------------------------------------------------------

def _nijenhuis_cols(pair, cols):
    """T N_r T^T cols: N = P0 PK^+ = -P0 PK on tangent coefficient columns,
    and N^* on flow-derivative columns, B^T for B = K^+ P0 PK^+ K = -PK P0
    (PK, P0 antisymmetric); -P0 PK = T N_r K_T^2 T^T = T N_r T^T."""
    tan = pair.tangent
    return tan @ (pair.nr @ (np.swapaxes(tan, -1, -2) @ cols))


def nijenhuis_apply(pair, v, check=True):
    """Pencil route: N v with t(Nv) = T N_r T^T t(v); v must be tangent.

    v is one matrix per row of the pair, (..., N, N).
    """
    t = pair.case.alg.real_coefficients(v)[..., None]      # column vectors
    if check:
        tan = pair.tangent
        res = np.linalg.norm(t - tan @ (np.swapaxes(tan, -1, -2) @ t),
                             axis=(-2, -1))
        if (res > TANGENT_TOL * np.maximum(1.0, np.linalg.norm(t, axis=(-2, -1)))).any():
            raise ConventionError(f"vector is not tangent: residual {res.max():.3e}")
    return pair.case.alg.from_coefficients(_nijenhuis_cols(pair, t)[..., 0])


def nijenhuis_formula(case, m, v):
    """Closed-form route: N v = [-J(v), m] + v (stacks allowed)."""
    jv = case.alg.j_apply(v)
    return -(jv @ m - m @ jv) + v


def _restricted(case, tjt):
    """N_r = K_T (J_T - T^T J T) from T^T J T (..., 2 n_eig, 2 n_eig) of a
    tangent frame T: the one place that forms N_r, for pairs and fd flows."""
    return case.k_t @ (case.j_t - tjt)


def pencil_eigenvalues(pair):
    """All 2 n_eig eigenvalues of the tangent-restricted N (pair.nr), as
    sorted real parts (..., 2 n_eig) and the largest imaginary part per row
    (...).  A readout only: reality and doubling are for the caller to
    judge (run_suite reports them as checks, pencil_spectrum raises)."""
    ev = np.linalg.eigvals(pair.nr)
    return np.sort(ev.real, axis=-1), np.abs(ev.imag).max(axis=-1)


def pencil_spectrum(pair):
    """De-doubled pencil eigenvalues, ascending (..., n_eig).  Raises
    NumericalError on a row whose max imag exceeds IMAG_TOL max(1, max|Re
    lambda|), or whose doubled pairs differ by more than PAIRING_TOL."""
    ev, im = pencil_eigenvalues(pair)
    if (im > IMAG_TOL * np.maximum(1.0, np.abs(ev).max(axis=-1))).any():
        raise NumericalError(f"pencil eigenvalues not real: max imag {im.max():.3e}")
    lo, hi = ev[..., 0::2], ev[..., 1::2]
    gap = np.abs(lo - hi).max()
    if gap > PAIRING_TOL:
        raise NumericalError(f"eigenvalue pairing failed: gap {gap:.3e}")
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# finite differences along orbit flows
# ---------------------------------------------------------------------------

# The flow data do not depend on the point.  With the steps
# s = exp(+-h Y_j), a flow point g s has moment g (s rho s^dag) g^dag and,
# as A(g s) = A(g) A(s), frame A(g) Z with Z = _tangent(case, s).  One
# read-only pair of stacks per step h serves every fd flow of a case:
# s rho s^dag (dim_m, 2, N, N) and Z (dim_m, 2, dim, dim_m), float64 for
# every family (0.95 MB at diii:n=6, 6.0 MB at diii:n=8, 11.9 MB at
# aiii:k=6,n=12, 70 MB at ci:n=11).  Case.flow_data holds them, so they
# last as long as the case and no longer.


def _flow_data(case, h):
    """(rho_s, z) of the steps [j, 0] = exp(+h Y_j), [j, 1] = exp(-h Y_j)
    for every tangent basis element Y_j = sum_b T0[b, j] X_b
    (Case.tangent), formed once per case and h."""
    if h not in case.flow_data:
        steps = expm_antihermitian(
            h * case.alg.from_coefficients(case.tangent.T))
        steps = np.stack([steps, _dagger(steps)], axis=1)
        # Z^T is contiguous, as _tangent returns it
        data = (conjugate_rho(case, steps), _tangent(case, steps))
        for arr in data:
            arr.flags.writeable = False
        case.flow_data[h] = data
    return case.flow_data[h]


class _BaseFrame:
    """A = Ad_{g^-1} and M = A^T J A at the base points g (S, N, N) of one
    fd flow, each formed on first read and shared by its chunks."""

    def __init__(self, case, g):
        self.case, self.g = case, g

    @cached_property
    def adjoint(self):
        return _adjoint(self.case, self.g)

    @cached_property
    def metric(self):
        a = self.adjoint
        return np.swapaxes(a, -1, -2) @ (self.case.alg.jmat @ a)


class FlowChunk:
    """The flow points g exp(+-h Y_j) of a run of tangent directions j at
    every base point g, read through the base point, with one leading axis
    in (point, direction, sign) order: m = g rho_s g^dag, rows of the
    frame T = A Z (tangent_rows) and nr = N_r = K_T (J_T - Z^T M Z), from
    the flow data (rho_s, z) of the run and the base point's A and M; m and
    nr are formed on first read.  No flow point g s is formed."""

    def __init__(self, base, rho_s, z):
        self.base, self.rho_s, self.z = base, rho_s, z

    @staticmethod
    def _flat(x):
        """(S, run, 2, a, b) -> (S * run * 2, a, b)"""
        return x.reshape((-1,) + x.shape[-2:])

    @cached_property
    def m(self):
        g = self.base.g[:, None, None]
        return self._flat(g @ self.rho_s @ _dagger(g))

    def tangent_rows(self, rows):
        """T[rows] = A[rows] Z, (P, len(rows), 2 n_eig): the rows alone,
        without the rest of T; slice(None) reads all of T."""
        return self._flat(self.base.adjoint[:, None, None, rows] @ self.z)

    @cached_property
    def nr(self):
        mz = self.base.metric[:, None, None] @ self.z
        return _restricted(self.base.case,
                           self._flat(np.swapaxes(self.z, -1, -2) @ mz))


# Byte budget for the largest per-point intermediates of one bracket call,
# whatever stack its caller passes.  In the adjoint kernel (_budget_points)
# those are its two (chunk, rows, N, N) side products, each entry counted
# at the size of the case's own side (Case.tangent_side): 8 bytes for the
# real so-families, 16 for aiii and ci; rows = 2 n_eig for the tangent
# reader, dim for bruhat_matrix's A.  In an fd flow (_flow_directions) it
# is M Z, one float64 (dim, 2 n_eig) product per flow point: no flow forms
# a larger one, and the Jacobi flow reads only the needed rows of T = A Z;
# the chain flow, which forms no M Z, counts one (N, N) m per flow point.
_FLOW_CHUNK_BYTES = 1 << 18


def _budget_points(case, rows):
    """How many items (at least 1) fit the byte budget, each holding two
    (rows, N, N) stacks at the element size of Case.tangent_side: points
    of the adjoint kernel, whose side products are two such stacks, or
    directions of the chain flow, whose m at P points are two (P, N, N)."""
    return max(1, _FLOW_CHUNK_BYTES // (
        2 * case.tangent_side.itemsize * rows * case.alg.size ** 2))


def _flow_directions(case, points):
    """Tangent directions (at least 1) per fd flow call at `points` base
    points: both signs of each, whose float64 M Z products, (dim, 2 n_eig)
    per flow point, fit the byte budget."""
    return max(1, _FLOW_CHUNK_BYTES // (points * 2 * case.alg.dim
                                        * case.dim_m * 8))


def directional_derivatives(case, g, funcs, h=DEFAULT_FD_STEP, chunk=None):
    """fd derivatives of functions on the orbit along the tangent flows
    g exp(h Y_j), at one g (N, N) or a stack (..., N, N): w = T^T dvec of
    the fundamental-flow derivatives dvec (see the module docstring).

    Stack contract: funcs maps a FlowChunk, the m, rows of T and N_r of P
    flow points read through their base points, to values with a leading
    stack axis, (P, *value_shape); row p must depend on row p of the chunk
    alone.
    The tangent directions go through funcs in runs of chunk directions,
    both signs and every base point per call, by default _flow_directions,
    so that the M Z products of a call stay within the byte budget at any
    number of base points.  A and M are formed once per base point, when a
    chunk first reads T or N_r.
    Returns (..., dim_m, *value_shape).
    """
    g = np.asarray(g)
    lead, size = g.shape[:-2], case.alg.size
    base = _BaseFrame(case, g.reshape((-1, size, size)))
    rho_s, z = _flow_data(case, h)
    points = len(base.g)
    step = chunk or _flow_directions(case, points)
    out = None
    for a in range(0, case.dim_m, step):
        vals = np.asarray(funcs(FlowChunk(base, rho_s[a:a + step],
                                          z[a:a + step])))
        vals = vals.reshape((points, -1, 2) + vals.shape[1:])
        if out is None:
            out = np.empty((points, case.dim_m) + vals.shape[3:], vals.dtype)
        out[:, a:a + step] = (vals[:, :, 0] - vals[:, :, 1]) / (2 * h)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite fd derivative")
    return out.reshape(lead + out.shape[1:])


def gradient_bracket(pair, w):
    """The KKS and Bruhat brackets of functions given their tangent-frame
    flow derivatives w = T^T dvec as rows (..., nfuncs, 2 n_eig), as
    directional_derivatives returns them: w^T K_T w and w^T K_T N_r w.
    df = sum_a c_a dF_a has dvec = K^T c = -K c, so c = K dvec (a kernel
    part is annihilated by both brackets), and c^T PK c, c^T P0 c reduce
    to these by K_T^2 = -1 and T^T T = 1."""
    wk, wt = w @ pair.case.k_t, np.swapaxes(w, -1, -2)
    return wk @ wt, wk @ (pair.nr @ wt)


def jacobi_residual(pair, triples):
    """max |{{F_a,F_b},F_c} + cyclic| over coordinate triples, under the
    KKS bracket ("kks", the t -> infinity limit of the pencil) and under
    pi_t = P0 + t PK at t = 0 ("t0") and t = 1 ("t1"), as a dict; the
    largest over a stacked pair's points.

    One fd flow serves all three: the bracketed entries of the K and P0
    blocks are differentiated together, and d(P0 + t K) = dP0 + t dK.
    """
    case = pair.case
    cyclic = [xyz for (a, b, c) in triples
              for xyz in ((a, b, c), (b, c, a), (c, a, b))]
    needed = sorted({i for tr in triples for i in tr})
    pos = {i: j for j, i in enumerate(needed)}
    rows = [pos[x] for x, _, _ in cyclic]
    cols = [pos[y] for _, y, _ in cyclic]
    zs = [z for _, _, z in cyclic]

    def entries(flow):
        # the needed rows T_n of each flow point's T give the blocks
        # T_n K_T T_n^T of K and T_n (N_r K_T) T_n^T of P0; only the
        # bracketed pairs {F_x, F_y} are differentiated
        t_n = flow.tangent_rows(needed)
        t_nt = np.swapaxes(t_n, -1, -2)
        k = t_n @ case.k_t @ t_nt
        p0 = t_n @ (flow.nr @ case.k_t) @ t_nt
        return np.stack([k[:, rows, cols], p0[:, rows, cols]], axis=1)

    dk, d0 = np.moveaxis(
        directional_derivatives(case, pair.point.g, entries), -2, 0)
    # {{F_x, F_y}, F_z} = c^T pi[:, z] with c = K dvec = T u for the flow
    # derivatives w = T^T dvec of {F_x, F_y}, u = K_T w, pi = T X K_T T^T
    # (X = 1, N_r or N_r + 1): u^T X (K_T T[z]^T), column by column
    kz = case.k_t @ np.swapaxes(pair.tangent[..., zs, :], -1, -2)
    nkz = pair.nr @ kz

    def residual(w, xkz):
        terms = ((case.k_t @ w) * xkz).sum(axis=-2)
        cyc = terms.reshape(terms.shape[:-1] + (-1, 3)).sum(axis=-1)
        return float(np.abs(cyc).max(initial=0.0))

    return {"kks": residual(dk, kz), "t0": residual(d0, nkz),
            "t1": residual(d0 + dk, nkz + kz)}


# ---------------------------------------------------------------------------
# Lenard recursion and eigenvalue equation
# ---------------------------------------------------------------------------

def lenard_check(pair, k_max):
    """Residuals of the Lenard recursion dI_{k+1} = N^* dI_k for
    I_k = (1/k) Tr N^k, k <= k_max, by the trace rule
    dI_k = Tr(N_r^(k-1) dN_r): the fd flow differences N_r, and the powers
    of the pair's own N_r contract it, once per base point, into the
    tangent-frame derivatives w_k = T^T dvec_k, on which N^* acts as N_r.
    Returns {"steps": per-step residuals relative to the gradient scale,
    "max"}, each the largest over a stacked pair's points; no trace and no
    pencil eigenvalue (run_suite checks Tr N = 2 sum(lambda) against the
    chain).
    """
    nr_t = np.swapaxes(pair.nr, -1, -2)
    pows = [np.broadcast_to(np.eye(nr_t.shape[-1]), nr_t.shape)]
    for _ in range(1, k_max):
        pows.append(pows[-1] @ nr_t)             # (N_r^k)^T = (N_r^T)^k
    flat = nr_t.shape[:-2] + (-1, nr_t.shape[-1] ** 2)
    pows = np.stack(pows, axis=-3).reshape(flat)
    dn = directional_derivatives(pair.case, pair.point.g, lambda flow: flow.nr)
    # w[..., j, k] = <(N_r^k)^T, dN_r along Y_j> = Tr(N_r^k dN_r) = dI_(k+1)
    w = dn.reshape(flat) @ np.swapaxes(pows, -1, -2)
    lhs = w[..., 1:]
    res = (np.linalg.norm(lhs - pair.nr @ w[..., :-1], axis=-2)
           / np.maximum(1.0, np.linalg.norm(lhs, axis=-2)))
    steps = res.max(axis=tuple(range(res.ndim - 1)))
    return {"steps": steps.tolist(), "max": float(steps.max(initial=0.0))}


def chain_gradient(pair):
    """Tangent-frame fd flow derivatives w = T^T dvec of the free chain
    eigenvalues at the pair's points, (..., 2 n_eig, n_eig): column i is
    w of lambda_i, as gradient_bracket (transposed) and
    nstar_eigen_residual take it.  The chain reads only m and forms no
    M Z: its runs hold as many directions as the byte budget allows for
    one (N, N) m per flow point at the side's element size, so a call
    takes any number of points."""
    case = pair.case
    points = np.size(pair.point.g) // case.alg.size ** 2
    return directional_derivatives(
        case, pair.point.g,
        lambda flow: _spectrum.chain_free_vector(case, flow.m),
        chunk=_budget_points(case, points))


def nstar_eigen_residual(pair, w):
    """max_i |N^* d(lambda_i) - lambda_i d(lambda_i)| over free eigenvalues
    and a stacked pair's points, from w = chain_gradient(pair): in the
    tangent frame, |N_r w_i - lambda_i w_i|."""
    lam = _spectrum.chain_free_vector(pair.case, pair.point.m)
    resid = pair.nr @ w - lam[..., None, :] * w
    return float((np.linalg.norm(resid, axis=-2)
                  / np.maximum(1.0, np.linalg.norm(w, axis=-2))).max())


# ---------------------------------------------------------------------------
# contravariant connection
# ---------------------------------------------------------------------------

def connection_check(pair, v):
    """max|N v by the pencil - N v by the closed formula| over the pair's
    points, for tangent v (..., N, N) broadcast against the stack: the
    explicit connection formula N v = [-J(v), m] + v (nijenhuis_formula,
    which reads J and m) against T N_r T^T v (nijenhuis_apply, which reads
    the pair's T and N_r), on every family alike."""
    return float(np.abs(nijenhuis_apply(pair, v, check=False)
                        - nijenhuis_formula(pair.case, pair.point.m, v)).max())
