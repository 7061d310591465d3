"""Bruhat and KKS Poisson matrices in moment coordinates, and the pencil.

Coordinates are F_a(m) = <m, X_a> over the orthonormal algebra basis.  The
KKS (Lie-Poisson) matrix is PK = s_K <m, [X_a, X_b]>; the Bruhat matrix is

    P0[a,b] = -s_0 Im Tr( g-part(Ad_{g^-1} C_+(xi_a)) . b_+-part(Ad_{g^-1} C_+(xi_b)) )

with xi_a = [m, X_a] (the right-translated differential of F_a).  The signs
(s_K, s_0) are fixed once by the discrete calibration in `verify`; the
calibrated global convention is (+1, -1).

`bruhat_matrix` evaluates the same tensor in coefficient space, as the
r-matrix form Ad_g J Ad_g^-1 - J pulled back through K (Lu-Weinstein):

    P0 = -s_0 K (A J A^T - J) K,    A[a,b] = -Re Tr(g^-1 X_a g X_b).

Derivation: xi_a has coefficient row K[a], and A is Ad_{g^-1} on
coefficient rows (orthogonal, as g is unitary).  Ad_{g^-1} is complex
linear, so z_a = Ad_{g^-1} C_+(xi_a) = i u_a + w_a with u_a = Ad_{g^-1} xi_a
(row K[a] A) and w_a = Ad_{g^-1} J xi_a (row K[a] J^T A).  The Iwasawa
split of z = i u + w has g-part x = w - J u and b_+-part C_+(u); since x,
u and J u are in g, Im Tr(x C_+(u)) = Tr(x u) = -<x, u>.  Hence
P0[a,b] = s_0 <x_a, u_b> = s_0 K[a] (J^T A - A J^T) A^T K[b]^T, which with
A A^T = 1, J^T = -J and K^T = -K is the form above.  The einsum form of the
Iwasawa expression is kept as the oracle in the tests.

`kks_raw` and `bruhat_matrix` take leading stack axes; callers that hold K
pass it as `k=`.  The Nijenhuis operator acts on tangent coefficient
vectors as P0 . PK^+, and independently in closed form as
N v = [-J(v), m] + v.  `build_pair` takes the module's one SVD: of K, for
the rank test, the tangent basis and K^+ = V_r diag(1/s_r) U_r^T, with the
cut s > 1e-9 s_0 that pinv(K, rcond=1e-9) would apply.  `traces_of_powers`
needs none, as Tr N^k is a trace of powers of K D.

Stack contract of the pencil: `build_pair` takes one g (N, N) or a stack
(S, N, N), and every `BracketPair` field then carries the same leading
axis.  `nijenhuis_apply`, `nijenhuis_formula`, `connection_check`,
`pencil_eigenvalues` and `pencil_spectrum` take such pairs (and matching
stacks of vectors); their checks run per row with the per-point scales and
tolerances, so a stack raises whenever one of its rows would.  A single
point is a batch of one through the same code.  `stack_chunk(case)` is the
one rule for how many points go into a stacked call, shared by the sample
loops in `verify` and the fd flows (both signs of `stack_chunk(case)`
directions per call).
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectrum as _spectrum
from .errors import ConventionError, NumericalError
from .numkernel import DEFAULT_FD_STEP, expm_antihermitian

CALIBRATED_SIGNS = (1, -1)      # (s_K, s_0); see verify.calibrate


def _dagger(x):
    return np.conj(np.swapaxes(x, -1, -2))


def _moment(case, g):
    """m = g rho g^dag for one group element or a stack (unchecked; see
    hermsym.moment for the checked form)."""
    return g @ case.rho @ _dagger(g)


def kks_raw(case, m):
    """K_ab = <m, [X_a, X_b]>, the unsigned Lie-Poisson matrix.

    m may be a stack (..., N, N); K then has shape (..., dim, dim).
    """
    alg = case.alg
    # p[..., a, b] = Re Tr(m X_a X_b)
    p = -alg.real_coefficients(np.asarray(m)[..., None, :, :] @ alg.basis)
    return np.swapaxes(p, -1, -2) - p


def _r_matrix(case, g):
    """D = A J A^T - J, the r-matrix Ad_g J Ad_g^-1 - J in coefficients (g
    may be a stack)."""
    alg = case.alg
    # A[..., a, b] = -Re Tr(g^-1 X_a g X_b): Ad_{g^-1} on coefficient rows
    a = alg.real_coefficients(_dagger(g)[..., None, :, :] @ alg.basis
                              @ g[..., None, :, :])
    return a @ alg.jmat @ np.swapaxes(a, -1, -2) - alg.jmat


def bruhat_matrix(case, g, s_0=CALIBRATED_SIGNS[1], k=None, block=None):
    """The Bruhat-Poisson matrix -s_0 K (A J A^T - J) K at the coset of g.

    g may be a stack (..., N, N).  k is kks_raw at m = g rho g^dag (built
    here when not given); block, a list of coordinate indices, restricts
    the result to P0[block][:, block].
    """
    g = np.asarray(g)
    if k is None:
        k = kks_raw(case, _moment(case, g))
    mid = _r_matrix(case, g)
    left, right = (k, k) if block is None else (k[..., block, :], k[..., :, block])
    return -s_0 * (left @ mid @ right)


@dataclass
class BracketPair:
    """Both Poisson matrices at one orbit point or a stack of them, with
    tangent data; every array field has the stack's leading axes."""

    point: object                   # hermsym.OrbitPoint
    p0: np.ndarray
    pk: np.ndarray
    k_raw: np.ndarray = field(repr=False)
    tangent: np.ndarray = field(repr=False)   # (..., dim, 2 n_eig) orthonormal
    k_pinv: np.ndarray = field(repr=False)    # K^+ from the rank-cut SVD
    signs: tuple = CALIBRATED_SIGNS

    @property
    def case(self):
        return self.point.case

    def pk_pinv(self):
        return self.signs[0] * self.k_pinv


def build_pair(case, g, signs=CALIBRATED_SIGNS):
    """Both brackets at g, one group element (N, N) or a stack (S, N, N).

    One stacked SVD of K gives the rank check (the cut s > 1e-9 s_0 must
    leave dim M values in every row), the tangent basis and K^+.  P0 needs
    no check: -s_0 K D K with D antisymmetric is antisymmetric and maps into
    range(PK) by construction.
    """
    from .hermsym import OrbitPoint
    g = np.asarray(g)
    m = _moment(case, g)
    k = kks_raw(case, m)
    p0 = bruhat_matrix(case, g, signs[1], k=k)
    u, s, vt = np.linalg.svd(k)
    ranks = (s > 1e-9 * s[..., :1]).sum(axis=-1)
    bad = ranks[ranks != case.dim_m]
    if bad.size:
        raise NumericalError(f"KKS rank {int(bad.flat[0])} != dim M = {case.dim_m}")
    tangent = u[..., :case.dim_m]
    # the pseudo-inverse pinv(k, rcond=1e-9) would take, from the same SVD
    k_pinv = ((np.swapaxes(vt[..., :case.dim_m, :], -1, -2)
               / s[..., None, :case.dim_m]) @ np.swapaxes(tangent, -1, -2))
    return BracketPair(OrbitPoint(case, g, m), p0, signs[0] * k, k, tangent,
                       k_pinv, signs)


# ---------------------------------------------------------------------------
# Nijenhuis operator, two routes
# ---------------------------------------------------------------------------

def nijenhuis_apply(pair, v, check=True, tol=1e-9):
    """Pencil route: N v with t(Nv) = P0 PK^+ t(v); v must be tangent.

    v is one matrix per row of the pair, (..., N, N).
    """
    t = pair.case.alg.real_coefficients(v)[..., None]      # column vectors
    if check:
        tan = pair.tangent
        res = np.linalg.norm(t - tan @ (np.swapaxes(tan, -1, -2) @ t),
                             axis=(-2, -1))
        if (res > tol * np.maximum(1.0, np.linalg.norm(t, axis=(-2, -1)))).any():
            raise ConventionError(f"vector is not tangent: residual {res.max():.3e}")
    return pair.case.alg.from_coefficients((pair.p0 @ (pair.pk_pinv() @ t))[..., 0])


def nijenhuis_formula(case, m, v):
    """Closed-form route: N v = [-J(v), m] + v (stacks allowed)."""
    jv = case.alg.j_apply(v)
    return -(jv @ m - m @ jv) + v


def nijenhuis_restricted(pair):
    """Matrix of N = P0 PK^-1 on the tangent basis (..., 2 n_eig, 2 n_eig)."""
    b = pair.tangent
    bt = np.swapaxes(b, -1, -2)
    return (bt @ pair.p0 @ b) @ np.linalg.inv(bt @ pair.pk @ b)


def pencil_eigenvalues(pair, imag_tol=1e-8):
    """All 2 n_eig eigenvalues of the tangent-restricted N, sorted real
    parts (..., 2 n_eig), and the largest imaginary part per row (...)."""
    ev = np.linalg.eigvals(nijenhuis_restricted(pair))
    scale = np.maximum(1.0, np.abs(ev).max(axis=-1))
    im = np.abs(ev.imag).max(axis=-1)
    if (im > imag_tol * scale).any():
        raise NumericalError(f"pencil eigenvalues not real: max imag {im.max():.3e}")
    return np.sort(ev.real, axis=-1), im


def pencil_spectrum(pair, pair_tol=1e-8, imag_tol=1e-8):
    """De-doubled pencil eigenvalues, ascending (..., n_eig)."""
    ev, _ = pencil_eigenvalues(pair, imag_tol)
    lo, hi = ev[..., 0::2], ev[..., 1::2]
    gap = np.abs(lo - hi).max()
    if gap > pair_tol:
        raise NumericalError(f"eigenvalue pairing failed: gap {gap:.3e}")
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# finite differences along orbit flows
# ---------------------------------------------------------------------------

def flow_points(case, g, h=DEFAULT_FD_STEP):
    """Perturbed group elements, (dim, 2, N, N): [a, 0] = exp(+h X_a) g and
    [a, 1] = exp(-h X_a) g for every basis direction a."""
    steps = expm_antihermitian(h * case.alg.basis)
    return np.stack([steps, _dagger(steps)], axis=1) @ g


# Byte budget for the stacked Bruhat kernel's two (chunk, dim, N, N) complex
# products: both fit in it at stack_chunk points; an fd flow call has twice
# as many points (both signs of stack_chunk directions), so there each
# product alone fits in it.
_FLOW_CHUNK_BYTES = 1 << 18


def stack_chunk(case):
    """Points per stacked bracket call (at least 1), from dim N^2 and the
    byte budget."""
    alg = case.alg
    return max(1, _FLOW_CHUNK_BYTES // (32 * alg.dim * alg.size ** 2))


def directional_derivatives(case, g, funcs, h=DEFAULT_FD_STEP):
    """fd derivatives of point functions along every fundamental flow.

    Stack contract: funcs maps stacks (gs, ms) of flow points, shapes
    (S, N, N), to values with a leading stack axis, (S, *value_shape); row
    s must depend on gs[s], ms[s] alone.  The 2 dim flow points go through
    funcs in chunks of both signs of stack_chunk(case) directions, so that
    the stacked intermediates of one call, about chunk * dim * N^2 complex
    numbers, stay within a fixed byte budget.  Returns (dim, *value_shape).
    """
    pts = flow_points(case, g, h)
    size = case.alg.size
    step = stack_chunk(case)
    out = None
    for a in range(0, len(pts), step):
        gs = pts[a:a + step].reshape(-1, size, size)
        vals = np.asarray(funcs(gs, _moment(case, gs)))
        if out is None:
            out = np.empty((len(pts),) + vals.shape[1:], vals.dtype)
        out[a:a + step] = (vals[0::2] - vals[1::2]) / (2 * h)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite fd derivative")
    return out


def coefficients_of_differential(pair, dvec):
    """Solve df = sum_a c_a dF_a from the flow derivatives dvec.

    Flow derivatives satisfy dvec = K^T c = -K c, so c = -K^+ dvec (any
    kernel component is annihilated by both brackets).
    """
    return -pair.k_pinv @ dvec


def gradient_bracket(pair, dvecs, p):
    """Pairwise brackets of functions given their flow-derivative vectors,
    under the Poisson matrix p: pair.pk, pair.p0 or pair.p0 + t pair.pk."""
    c = coefficients_of_differential(pair, np.asarray(dvecs).T)   # (dim, nfuncs)
    return c.T @ p @ c


def jacobi_residual(case, g, t, triples, signs=CALIBRATED_SIGNS,
                    h=DEFAULT_FD_STEP):
    """max |{{F_a,F_b},F_c} + cyclic| under pi_t over coordinate triples.

    t = 'kks' checks the pure Lie-Poisson bracket (the t -> infinity limit
    of the pencil).
    """
    pair = build_pair(case, g, signs)
    cyclic = [xyz for (a, b, c) in triples
              for xyz in ((a, b, c), (b, c, a), (c, a, b))]
    needed = sorted({i for tr in triples for i in tr})
    pos = {i: j for j, i in enumerate(needed)}
    rows = [pos[x] for x, _, _ in cyclic]
    cols = [pos[y] for _, y, _ in cyclic]

    def entries(gs, ms):
        # one K per flow point; only the needed block of P0 is formed, and
        # only the bracketed pairs {F_x, F_y} are differentiated
        k = kks_raw(case, ms)
        pt = signs[0] * k[:, needed][:, :, needed]
        if t != "kks":
            pt = bruhat_matrix(case, gs, signs[1], k=k, block=needed) + t * pt
        return pt[:, rows, cols]

    dvec = directional_derivatives(case, g, entries, h)      # (dim, 3 * triples)
    ch = coefficients_of_differential(pair, dvec)
    pt0 = pair.pk if t == "kks" else pair.p0 + t * pair.pk
    terms = (ch * pt0[:, [z for _, _, z in cyclic]]).sum(axis=0)
    return float(np.abs(terms.reshape(-1, 3).sum(axis=1)).max(initial=0.0))


# ---------------------------------------------------------------------------
# Lenard recursion and eigenvalue equation
# ---------------------------------------------------------------------------

def _nstar_coefficient_matrix(pair):
    """B with (N^* df)(flows) = B^T Df for flow-derivative vectors Df."""
    k = pair.k_raw
    return pair.k_pinv @ (pair.p0 @ (pair.pk_pinv() @ k))


def traces_of_powers(case, g, k_max, signs=CALIBRATED_SIGNS):
    """I_k = (1/k) Tr N^k for k = 1..k_max at g, one point or a stack
    (..., N, N) -> (..., k_max), with no SVD.

    N = P0 PK^+ = -s_0 s_K K D (K K^+) with D = A J A^T - J.  K K^+ is the
    identity on range(K), the tangent space, and Tr is cyclic, so
    Tr N^k = (-s_0 s_K)^k Tr (K D)^k.  No rank check is needed per point:
    K has rank dim M all over the orbit, and lenard_check's build_pair
    checks it at the base point.
    """
    g = np.asarray(g)
    kd = kks_raw(case, _moment(case, g)) @ _r_matrix(case, g)
    c = -signs[1] * signs[0]
    out = []
    acc = kd
    for j in range(1, k_max + 1):
        if j > 1:
            acc = acc @ kd
        out.append(c ** j * np.trace(acc, axis1=-2, axis2=-1) / j)
    return np.stack(out, axis=-1)


def lenard_check(case, g, k_max, signs=CALIBRATED_SIGNS, h=DEFAULT_FD_STEP):
    """Residuals of dI_{k+1} = N^* dI_k, plus the trace identity gap.

    Returns dict with per-step residuals (relative to the gradient scale)
    and |Tr N - 2 sum(lambda)|.
    """
    pair = build_pair(case, g, signs)
    dvec = directional_derivatives(
        case, g, lambda gs, ms: traces_of_powers(case, gs, k_max, signs), h)
    bmat = _nstar_coefficient_matrix(pair)
    res = []
    for k in range(k_max - 1):
        lhs = dvec[:, k + 1]
        rhs = bmat.T @ dvec[:, k]
        res.append(float(np.linalg.norm(lhs - rhs)
                         / max(1.0, np.linalg.norm(lhs))))
    lam = pencil_spectrum(pair)
    trace_gap = abs(np.trace(nijenhuis_restricted(pair)).real - 2 * lam.sum())
    return {"steps": res, "max": max(res) if res else 0.0, "trace_gap": trace_gap}


def nstar_eigen_residual(case, g, signs=CALIBRATED_SIGNS, h=DEFAULT_FD_STEP):
    """max_i |N^* d(lambda_i) - lambda_i d(lambda_i)| over free eigenvalues."""
    pair = build_pair(case, g, signs)
    m = pair.point.m
    lam = _spectrum.chain_free_vector(case, m)
    dvec = directional_derivatives(
        case, g, lambda gs, ms: _spectrum.chain_free_vector(case, ms), h)
    bmat = _nstar_coefficient_matrix(pair)
    worst = 0.0
    for i, li in enumerate(lam):
        resid = bmat.T @ dvec[:, i] - li * dvec[:, i]
        worst = max(worst, float(np.linalg.norm(resid)
                                 / max(1.0, np.linalg.norm(dvec[:, i]))))
    return worst


# ---------------------------------------------------------------------------
# contravariant connection (both displays)
# ---------------------------------------------------------------------------

def connection_check(case, g, v):
    """Residual between the full connection formula (-J(v) + [m, v]) g and
    the eigenbundle block form -/+ C_pm(v) sigma_pm; for stacks of g and v,
    the largest residual over the rows.

    bdi lacks the block form; the check degenerates there and is flagged.
    """
    alg = case.alg
    m = _moment(case, g)
    jv = alg.j_apply(v)
    full = (-jv + (m @ v - v @ m)) @ g
    if case.tag == "bdi":
        return 0.0, False
    cp = 1j * v + jv
    cm = 1j * v - jv
    sp = g @ case.w_plus
    sm = g @ case.w_minus
    res = max(np.abs(full @ case.w_plus + cp @ sp).max(),
              np.abs(full @ case.w_minus - cm @ sm).max())
    return float(res), True
