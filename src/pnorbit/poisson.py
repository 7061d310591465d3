"""Bruhat and KKS Poisson matrices in moment coordinates, and the pencil.

Coordinates are F_a(m) = <m, X_a> over the orthonormal algebra basis.  The
KKS (Lie-Poisson) matrix is PK = s_K <m, [X_a, X_b]>; the Bruhat matrix is

    P0[a,b] = -s_0 Im Tr( g-part(Ad_{g^-1} C_+(xi_a)) . b_+-part(Ad_{g^-1} C_+(xi_b)) )

with xi_a = [m, X_a] (the right-translated differential of F_a).  The signs
(s_K, s_0) are fixed once by the discrete calibration in `verify`; the
calibrated global convention is (+1, -1).

The Nijenhuis operator acts on tangent coefficient vectors as P0 . PK^+,
and independently in closed form as N v = [-J(v), m] + v.

Both matrices are assembled from BLAS products only: stacked `@` for
m X_a, [m, X_a] and g^dag C_+(xi_a) g, and one GEMM per trace pairing
against the algebra's precomputed maps (`LieAlgebra.flat`, `flat_t`,
`jflat`).  `build_pair` takes one SVD of K: it gives the rank test, the
tangent basis and K^+ = V_r diag(1/s_r) U_r^T, with the cut s > 1e-9 s_0
that pinv(K, rcond=1e-9) would apply.
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectrum as _spectrum
from .errors import ConventionError, NumericalError
from .numkernel import DEFAULT_FD_STEP, expm_antihermitian

CALIBRATED_SIGNS = (1, -1)      # (s_K, s_0); see verify.calibrate


def kks_raw(case, m):
    """K_ab = <m, [X_a, X_b]>, the unsigned Lie-Poisson matrix."""
    alg = case.alg
    p = -alg.coefficients(m @ alg.basis)      # p[a, b] = Tr(m X_a X_b)
    return (p.T - p).real


def kks_matrix(case, m, s_k=CALIBRATED_SIGNS[0]):
    return s_k * kks_raw(case, m)


def bruhat_matrix(case, g, s_0=CALIBRATED_SIGNS[1]):
    """The Bruhat-Poisson matrix at the coset of g (stacked GEMM build)."""
    alg = case.alg
    dim = alg.dim
    m = g @ case.rho @ g.conj().T
    xi = m @ alg.basis - alg.basis @ m
    z = g.conj().T @ alg.c_plus(xi) @ g
    g_part, _ = alg.iwasawa_split(z)
    b_part = z - g_part
    # Tr(g_part_a b_part_b) as one GEMM over the flattened matrices
    b_rows_t = np.swapaxes(b_part, 1, 2).reshape(dim, -1)
    return -s_0 * (g_part.reshape(dim, -1) @ b_rows_t.T).imag


@dataclass
class BracketPair:
    """Both Poisson matrices at one orbit point, with tangent data."""

    point: object                   # hermsym.OrbitPoint
    p0: np.ndarray
    pk: np.ndarray
    k_raw: np.ndarray = field(repr=False)
    tangent: np.ndarray = field(repr=False)   # (dim, 2 n_eig) orthonormal
    k_pinv: np.ndarray = field(repr=False)    # K^+ from the rank-cut SVD
    signs: tuple = CALIBRATED_SIGNS

    @property
    def case(self):
        return self.point.case

    def pk_pinv(self):
        return self.signs[0] * self.k_pinv


def build_pair(case, g, signs=CALIBRATED_SIGNS, validate=True):
    from .hermsym import OrbitPoint
    m = g @ case.rho @ g.conj().T
    k = kks_raw(case, m)
    p0 = bruhat_matrix(case, g, signs[1])
    u, s, vt = np.linalg.svd(k)
    rank = int((s > 1e-9 * s[0]).sum())
    if rank != case.dim_m:
        raise NumericalError(f"KKS rank {rank} != dim M = {case.dim_m}")
    tangent = u[:, :rank]
    # the pseudo-inverse pinv(k, rcond=1e-9) would take, from the same SVD
    k_pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    pair = BracketPair(OrbitPoint(case, g, m), p0, signs[0] * k, k, tangent,
                       k_pinv, signs)
    if validate:
        asym = np.abs(p0 + p0.T).max()
        if asym > 1e-11 * max(1.0, np.abs(p0).max()):
            raise ConventionError(f"Bruhat matrix antisymmetry residual {asym:.3e}")
        proj = p0 - tangent @ (tangent.T @ p0)
        if np.abs(proj).max() > 1e-9 * max(1.0, np.abs(p0).max()):
            raise ConventionError("range(P0) not contained in range(PK)")
    return pair


# ---------------------------------------------------------------------------
# Nijenhuis operator, two routes
# ---------------------------------------------------------------------------

def nijenhuis_apply(pair, v, check=True, tol=1e-9):
    """Pencil route: N v with t(Nv) = P0 PK^+ t(v); v must be tangent."""
    t = pair.case.alg.coefficients(v).real
    if check:
        res = np.linalg.norm(t - pair.tangent @ (pair.tangent.T @ t))
        if res > tol * max(1.0, np.linalg.norm(t)):
            raise ConventionError(f"vector is not tangent: residual {res:.3e}")
    return pair.case.alg.from_coefficients(pair.p0 @ (pair.pk_pinv() @ t))


def nijenhuis_formula(case, m, v):
    """Closed-form route: N v = [-J(v), m] + v."""
    jv = case.alg.j_apply(v)
    return -(jv @ m - m @ jv) + v


def nijenhuis_restricted(pair):
    """Matrix of N on the tangent basis (2 n_eig square)."""
    b = pair.tangent
    pk_t = b.T @ pair.pk @ b
    p0_t = b.T @ pair.p0 @ b
    return p0_t @ np.linalg.inv(pk_t)


def pencil_eigenvalues(pair, imag_tol=1e-8):
    """All 2 n_eig eigenvalues of the tangent-restricted N, sorted real parts."""
    nt = nijenhuis_restricted(pair)
    ev = np.linalg.eigvals(nt)
    scale = max(1.0, np.abs(ev).max())
    im = np.abs(ev.imag).max()
    if im > imag_tol * scale:
        raise NumericalError(f"pencil eigenvalues not real: max imag {im:.3e}")
    return np.sort(ev.real), im


def pencil_spectrum(pair, pair_tol=1e-8, imag_tol=1e-8):
    """De-doubled pencil eigenvalues, ascending (length n_eig)."""
    ev, _ = pencil_eigenvalues(pair, imag_tol)
    gap = np.abs(ev[0::2] - ev[1::2]).max()
    if gap > pair_tol:
        raise NumericalError(f"eigenvalue pairing failed: gap {gap:.3e}")
    return (ev[0::2] + ev[1::2]) / 2


# ---------------------------------------------------------------------------
# finite differences along orbit flows
# ---------------------------------------------------------------------------

def flow_points(case, g, h=DEFAULT_FD_STEP):
    """Perturbed group elements exp(+-h X_a) g for every basis direction."""
    steps = expm_antihermitian(h * case.alg.basis)
    back = np.conj(np.swapaxes(steps, 1, 2))
    return steps @ g, back @ g


def directional_derivatives(case, g, funcs, h=DEFAULT_FD_STEP):
    """fd derivatives of point functions along every fundamental flow.

    funcs maps (g, m) -> scalar or vector; returns an array of shape
    (dim, *value_shape).
    """
    fwd, bwd = flow_points(case, g, h)
    rows = []
    for gp, gm in zip(fwd, bwd):
        fp = np.asarray(funcs(gp, gp @ case.rho @ gp.conj().T))
        fm = np.asarray(funcs(gm, gm @ case.rho @ gm.conj().T))
        rows.append((fp - fm) / (2 * h))
    out = np.stack(rows)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite fd derivative")
    return out


def coefficients_of_differential(pair, dvec):
    """Solve df = sum_a c_a dF_a from the flow derivatives dvec.

    Flow derivatives satisfy dvec = K^T c = -K c, so c = -K^+ dvec (any
    kernel component is annihilated by both brackets).
    """
    return -pair.k_pinv @ dvec


def bracket_matrix(pair, which):
    if which == "kks":
        return pair.pk
    if which == "bruhat":
        return pair.p0
    if isinstance(which, tuple) and which[0] == "pencil":
        return pair.p0 + which[1] * pair.pk
    raise ConventionError(f"unknown bracket selector {which!r}")


def gradient_bracket(pair, dvecs, which):
    """Pairwise brackets of functions given their flow-derivative vectors."""
    c = coefficients_of_differential(pair, np.asarray(dvecs).T)   # (dim, nfuncs)
    return c.T @ bracket_matrix(pair, which) @ c


def jacobi_residual(case, g, t, triples, signs=CALIBRATED_SIGNS,
                    h=DEFAULT_FD_STEP):
    """max |{{F_a,F_b},F_c} + cyclic| under pi_t over coordinate triples.

    t = 'kks' checks the pure Lie-Poisson bracket (the t -> infinity limit
    of the pencil).
    """
    pair = build_pair(case, g, signs)
    needed = sorted({i for tr in triples for i in tr})

    def entries(gg, mm):
        if t == "kks":
            pt = kks_matrix(case, mm, signs[0])
        else:
            pt = (bruhat_matrix(case, gg, signs[1])
                  + t * kks_matrix(case, mm, signs[0]))
        return pt[np.ix_(needed, needed)].ravel()

    dvec = directional_derivatives(case, g, entries, h)      # (dim, k*k)
    k = len(needed)
    dvec = dvec.reshape(len(dvec), k, k)
    pos = {i: j for j, i in enumerate(needed)}
    pt0 = bracket_matrix(pair, "kks" if t == "kks" else ("pencil", t))
    worst = 0.0
    for (a, b, c) in triples:
        total = 0.0
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            ch = coefficients_of_differential(pair, dvec[:, pos[x], pos[y]])
            total += float(ch @ pt0[:, z])
        worst = max(worst, abs(total))
    return worst


# ---------------------------------------------------------------------------
# Lenard recursion and eigenvalue equation
# ---------------------------------------------------------------------------

def _nstar_coefficient_matrix(pair):
    """B with (N^* df)(flows) = B^T Df for flow-derivative vectors Df."""
    k = pair.k_raw
    return pair.k_pinv @ (pair.p0 @ (pair.pk_pinv() @ k))


def traces_of_powers(case, g, k_max, signs=CALIBRATED_SIGNS):
    """I_k = (1/k) Tr N^k for k = 1..k_max at the point g."""
    pair = build_pair(case, g, signs, validate=False)
    nt = nijenhuis_restricted(pair)
    out = []
    acc = np.eye(nt.shape[0])
    for k in range(1, k_max + 1):
        acc = acc @ nt
        out.append(np.trace(acc).real / k)
    return np.array(out)


def lenard_check(case, g, k_max, signs=CALIBRATED_SIGNS, h=DEFAULT_FD_STEP):
    """Residuals of dI_{k+1} = N^* dI_k, plus the trace identity gap.

    Returns dict with per-step residuals (relative to the gradient scale)
    and |Tr N - 2 sum(lambda)|.
    """
    pair = build_pair(case, g, signs)
    dvec = directional_derivatives(
        case, g, lambda gg, mm: traces_of_powers(case, gg, k_max, signs), h)
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
        case, g, lambda gg, mm: _spectrum.chain_free_vector(case, mm), h)
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
    the eigenbundle block form -/+ C_pm(v) sigma_pm.

    bdi lacks the block form; the check degenerates there and is flagged.
    """
    alg = case.alg
    m = g @ case.rho @ g.conj().T
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
