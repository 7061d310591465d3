"""Reference code shared by the tests; no test is collected here.

`sample_rng` is a fresh Philox generator per sample, keyed by the seed
at counter index << 64: the definition of the coefficient stream, which
hermsym.sample_coefficients draws from one generator that it re-points at
each sample's counter.  It is the oracle of that stream.

`eigenbundles` gives the isometries W_+, W_- onto the eigenspaces of rho
with eigenvalues r_+ and r_- = r_+ - i (on bdi, ker rho and the plane rho
rotates).  The library keeps no W_pm: the tests read the eigenbundle
columns sigma_pm = g W_pm, the block form of the connection and the diii
V_+ compression W_+^dag m W_+ from them.  `idempotents` and `free_masks` read the eigenbundle
projectors and the chain's free-coordinate masks that the tests check
the library against.

`batch_points_einsum` is the orbit sampler as it stood before its products
became BLAS calls: a fresh sample_rng per sample and einsums for x, exp(x)
and m.  The BLAS sampler must match it to round-off.

`ladder_gammas` is the gamma construction as it stood before the Kronecker
form: words sorted by their largest letters first, and the creation and
annihilation matrices filled one word at a time through a word index.
The library's gammas and word list must equal it bit for bit.

`bdi_chain_eigvalsh` is the bdi chain as it stood before a_k became a
Frobenius norm: a_k from the top eigenvalue of B^T B per block B.
`gt_chain_eigvalsh` is the Gelfand-Tsetlin chain as it stood before each
row was read from its smallest exact problem: one eigvalsh per leading
minor of -i b0, aiii's top row the exact constants.

`brackets_from_tangent` is the dense bracket pair PK = T K_T T^T and
P0 = T N_r K_T T^T that a BracketPair's T and N_r stand for; the library
forms neither, and the tests hold these to the independent routes.
`nijenhuis_restricted_inverse` is the restricted Nijenhuis matrix by its
definition, (T^T P0 T)(T^T PK T)^-1 on the tangent basis T, which the
base-frame form in the library must match to round-off.

`brackets_by_adjoint` is the bracket pair as it stood before the tangent
frame: PK = A K0 A^T, P0 = K (A J A^T - J) K and T = A T0 from the dim x dim
A = Ad_{g^-1}; `jacobi_entries_by_adjoint` reads the Jacobi flow's
bracketed K and P0 entries the same way.  `traces_of_powers_ambient` is
the Lenard trace route as it stood before the tangent frame:
Tr (K D)^k = Tr (K0 (J - A^T J A))^k in the ambient dim x dim frame.
`jacobi_residual_per_t` is the fd Jacobi residual as it stood before one
flow served every t: one flow of the tangent-frame entries of P0 + t K (or
of K alone at t = 'kks') per call, contracted in the tangent frame as the
library does.  The library routes must match them.

`directional_derivatives_by_basis` is the fd flow layer as it stood before
the tangent frame: central differences along the 2 dim fundamental flows
exp(+-h X_a) g, returning dvec (..., dim, *value).  The library's
tangent-frame w must equal T^T dvec to fd accuracy, and dvec must have no
normal part.

`flow_points` forms the flow points g exp(+-h Y_j) themselves, and
`PointFrames` reads m, T and N_r at given group elements, each from its
own point (conjugate_rho, _tangent, _restricted): together the per-flow-
point route as it stood before the fd flows read every flow point through
its base point (poisson.FlowChunk), which must match it to round-off.
`PointFrames` is also the view that the basis-flow oracle hands its funcs.

`complex_basis_case` is a case on the so-families' algebra as it stood
before its basis became float64: the same basis and h0, with the basis
cast to complex, so that every map built on it (coefficients, J, ad,
the adjoint kernel's side) runs in complex arithmetic.  The real maps
must match it to round-off.

`fault_in_nr` is a planted fault: a stand-in for poisson._restricted that
edits every N_r the bracket layer forms, for tests that show a check can
fail.  `fault_in_j` plants a fault in J itself: the case rebuilt through
hermsym._finish_case with J halved or flipped on the plane of the highest
compact root (`highest_compact_root_plane`), a plane of h = ker ad_rho,
so the case's own certificates, which read J on the tangent space only,
still pass.

`csv_rows_by_percent` is the polytope CSV rows as the command wrote them
before its vectorised formatter: one % operator call per chunk on the rows
(index, values...) in "%d," + "%.16e" per value.  cli._csv_rows must equal
it byte for byte.

`record_calls` wraps functions of a module in place (through pytest's
monkeypatch) and records the positional arguments of every call, for
tests that count calls or read what reached a function.

The checked algebra maps J, C_pm, the Iwasawa split of g_C = g (+) b_pm and
the Manin pairing Im Tr are the spec-level forms of the conventions that
the library uses unchecked (LieAlgebra.j_apply, LieAlgebra.c_plus); the
tests hold the conventions to them.  `kphi` is the symmetry exp(pi rho) of
a case.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np

from pnorbit import liealg
from pnorbit.errors import ConventionError
from pnorbit.hermsym import _finish_case, conjugate_rho
from pnorbit.numkernel import DEFAULT_FD_STEP, expm_antihermitian
from pnorbit.poisson import (_adjoint, _dagger, _restricted, _tangent,
                             directional_derivatives, kks_raw)
from pnorbit.spectrum import GT_TAGS, _layout, top_row_constants


def sample_rng(seed, index):
    """Counter-based per-sample generator: reproducible and parallel-safe."""
    return np.random.Generator(np.random.Philox(key=int(seed),
                                                counter=int(index) << 64))


def eigenbundles(case):
    """(W_+, W_-), complex orthonormal columns (N, dim W_pm): on aiii, ci
    and diii they span the eigenspaces of case.rho with eigenvalues r_+
    and r_- = r_+ - i; on bdi, where rho has the three eigenvalues 0 and
    +-i, W_+ spans ker rho and W_- the plane that rho rotates."""
    n = case.alg.size
    if case.tag == "diii":
        half = np.eye(n // 2)
        return (np.vstack([half, 1j * half]) / np.sqrt(2),
                np.vstack([half, -1j * half]) / np.sqrt(2))
    split = {"aiii": case.params.get("k"), "ci": n // 2, "bdi": n - 2}[case.tag]
    eye = np.eye(n, dtype=complex)
    return eye[:, :split], eye[:, split:]


def idempotents(case, g):
    """e_pm = sigma_pm sigma_pm^dagger from the column blocks of g."""
    w_plus, w_minus = eigenbundles(case)
    sp = g @ w_plus
    sm = g @ w_minus
    return sp @ sp.conj().T, sm @ sm.conj().T


def free_masks(case):
    """Boolean masks (one per chain row) marking the free coordinates.

    Frozen coordinates are pinned by the exact multiplicity structure of
    the case: coinciding interlacing bounds (aiii), the even-multiplicity
    pairing plus the odd-size constant (diii).  bdi coordinates are all
    free and handled separately.
    """
    if case.tag not in GT_TAGS:
        raise ConventionError(f"free_masks: not a GT-chain case: {case.tag}")
    return _layout(case).masks


def cartan_indices(alg):
    """Indices, ascending, of the basis elements of alg that commute with
    h0: as h0 is regular, exactly those that span its Cartan subalgebra."""
    comm = alg.h0 @ alg.basis - alg.basis @ alg.h0
    return np.flatnonzero(np.abs(comm).max(axis=(-2, -1)) <= 1e-12).tolist()


def cartan_element(alg, values):
    """sum_j values[j] X_{c_j} over the Cartan basis elements of alg."""
    z = np.zeros((alg.size, alg.size), complex)
    for idx, v in zip(cartan_indices(alg), values):
        z += v * alg.basis[idx]
    return z


def batch_points_einsum(case, seed, start, count):
    """(g, m) of samples start..start+count-1, by the einsum route."""
    d = case.alg.dim
    coefs = np.stack([sample_rng(seed, start + i).standard_normal(d)
                      for i in range(count)])
    x = np.einsum("sa,aij->sij", coefs, case.alg.basis)
    w, u = np.linalg.eigh(1j * x)
    g = np.einsum("...ik,...k,...jk->...ij", u, np.exp(-1j * w), u.conj())
    m = np.einsum("sij,jk,slk->sil", g, case.rho, g.conj())
    return g, m


def brackets_from_tangent(pair):
    """(PK, P0) of a pair as dense (..., dim, dim) matrices: T K_T T^T and
    T (N_r K_T) T^T."""
    t, k_t = pair.tangent, pair.case.k_t
    tt = np.swapaxes(t, -1, -2)
    return t @ k_t @ tt, t @ (pair.nr @ k_t) @ tt


def nijenhuis_restricted_inverse(t, pk, p0):
    """(T^T P0 T) inv(T^T PK T) on a tangent basis t (stacks allowed)."""
    tt = np.swapaxes(t, -1, -2)
    return (tt @ p0 @ t) @ np.linalg.inv(tt @ pk @ t)


def brackets_by_adjoint(case, g):
    """(PK, P0, T) at g (stacks allowed) from A = Ad_{g^-1}: A K0 A^T,
    K D K with D = A J A^T - J, and A T0."""
    a = _adjoint(case, np.asarray(g))
    at, jmat = np.swapaxes(a, -1, -2), case.alg.jmat
    k = a @ kks_raw(case, case.rho) @ at
    return k, k @ (a @ jmat @ at - jmat) @ k, a @ case.tangent


def _cyclic(triples):
    """The cyclic (x, y, z) of each triple, the sorted coordinates they
    read, and the block positions (rows, cols) of the brackets {F_x, F_y}."""
    cyclic = [xyz for (a, b, c) in triples
              for xyz in ((a, b, c), (b, c, a), (c, a, b))]
    needed = sorted({i for tr in triples for i in tr})
    pos = {i: j for j, i in enumerate(needed)}
    return (cyclic, needed, [pos[x] for x, _, _ in cyclic],
            [pos[y] for _, y, _ in cyclic])


def jacobi_entries_by_adjoint(case, gs, triples):
    """The bracketed entries (S, 2, 3 len(triples)) of K and P0 that
    jacobi_residual differentiates, at the points gs (S, N, N), from A."""
    _, needed, rows, cols = _cyclic(triples)
    a = _adjoint(case, gs)
    at, jmat = np.swapaxes(a, -1, -2), case.alg.jmat
    k_rows = a[:, needed] @ kks_raw(case, case.rho) @ at
    # K[:, needed] = -K[needed]^T, as K is antisymmetric
    p0 = k_rows @ (a @ jmat @ at - jmat) @ -np.swapaxes(k_rows, -1, -2)
    return np.stack([k_rows[:, :, needed][:, rows, cols],
                     p0[:, rows, cols]], axis=1)


def traces_of_powers_ambient(case, g, k_max):
    """(1/k) Tr (K0 (J - A^T J A))^k for k = 1..k_max (stacks allowed)."""
    a = _adjoint(case, np.asarray(g))
    jmat = case.alg.jmat
    kd = kks_raw(case, case.rho) @ (jmat - np.swapaxes(a, -1, -2) @ jmat @ a)
    pows = [kd]
    for _ in range(1, k_max):
        pows.append(pows[-1] @ kd)
    return np.stack([np.trace(p, axis1=-2, axis2=-1) / k
                     for k, p in enumerate(pows, 1)], axis=-1)


def jacobi_residual_per_t(pair, t, triples):
    """max |{{F_a,F_b},F_c} + cyclic| under pi_t (t = 'kks': KKS alone),
    from one fd flow of the bracketed entries of pi_t."""
    case = pair.case
    cyclic, needed, rows, cols = _cyclic(triples)

    def entries(flow):
        t_n = flow.tangent_rows(needed)
        t_nt = np.swapaxes(t_n, -1, -2)
        pt = t_n @ case.k_t @ t_nt
        if t != "kks":
            pt = t_n @ (flow.nr @ case.k_t) @ t_nt + t * pt
        return pt[:, rows, cols]

    w = directional_derivatives(case, pair.point.g, entries)
    # contracted in the tangent frame, as jacobi_residual does: u = K_T w
    # against (N_r + t) K_T T[z]^T, or K_T T[z]^T alone at 'kks'
    kz = case.k_t @ pair.tangent[[z for _, _, z in cyclic]].T
    xkz = kz if t == "kks" else pair.nr @ kz + t * kz
    terms = (case.k_t @ w * xkz).sum(axis=0)
    return float(np.abs(terms.reshape(-1, 3).sum(axis=1)).max(initial=0.0))


def flow_points(case, g, h=DEFAULT_FD_STEP):
    """Perturbed group elements of one g (N, N) or a stack (..., N, N),
    (..., dim_m, 2, N, N): [..., j, 0] = g exp(+h Y_j) and
    [..., j, 1] = g exp(-h Y_j) for every tangent basis element
    Y_j = sum_b T0[b, j] X_b (Case.tangent)."""
    steps = expm_antihermitian(h * case.alg.from_coefficients(case.tangent.T))
    steps = np.stack([steps, _dagger(steps)], axis=1)
    return np.asarray(g)[..., None, None, :, :] @ steps


class PointFrames:
    """m, T and N_r at group elements gs (P, N, N), each read from its own
    point, with the attributes of a poisson.FlowChunk."""

    def __init__(self, case, gs):
        self.m = conjugate_rho(case, gs)
        self.tangent = _tangent(case, gs)
        self.nr = _restricted(case, np.swapaxes(self.tangent, -1, -2)
                              @ (case.alg.jmat @ self.tangent))

    def tangent_rows(self, rows):
        return self.tangent[:, rows]

    def __len__(self):
        return len(self.m)


def directional_derivatives_by_basis(case, g, funcs, h=DEFAULT_FD_STEP):
    """fd derivatives dvec (..., dim, *value) of funcs along the basis flows
    exp(+-h X_a) g, at one g (N, N) or a stack (..., N, N); funcs takes
    the PointFrames of every flow point in one stack (S, N, N)."""
    steps = expm_antihermitian(h * case.alg.basis)
    steps = np.stack([steps, _dagger(steps)], axis=1)
    pts = steps @ np.asarray(g)[..., None, None, :, :]
    frames = PointFrames(case, pts.reshape((-1,) + pts.shape[-2:]))
    vals = np.asarray(funcs(frames))
    vals = vals.reshape(pts.shape[:-2] + vals.shape[1:])
    sign = pts.ndim - 3                       # the axis of +-h
    return (vals.take(0, axis=sign) - vals.take(1, axis=sign)) / (2 * h)


def complex_basis_case(case):
    """case with its algebra rebuilt on the complex-cast basis."""
    alg = case.alg
    return replace(case, alg=liealg._finish(liealg.LieAlgebra(
        alg.family, alg.size, alg.basis.astype(complex), alg.h0)))


def fault_in_nr(edit):
    """poisson._restricted with edit(case, N_r) applied to its result."""
    return lambda case, tjt: edit(case, _restricted(case, tjt))


def csv_rows_by_percent(start, data):
    """The CSV rows of samples start.. with values data (S, k), as bytes."""
    cnt, k = data.shape
    row = "%d," + ",".join(["%.16e"] * k) + "\n"
    cells = np.empty((cnt, 1 + k), object)
    cells[:, 0] = range(start, start + cnt)
    cells[:, 1:] = data
    return (row * cnt % tuple(cells.ravel().tolist())).encode()


def record_calls(monkeypatch, module, *names):
    """Wrap module.<name> for each name; returns {name: [args of each
    call]}, filled as the calls come."""
    calls = {name: [] for name in names}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    return calls


def _kernel(mat):
    """Orthonormal coefficient columns of the kernel of an ad matrix."""
    w, u = np.linalg.eigh(mat.T @ mat)
    return u[:, w < 0.25]


def highest_compact_root_plane(case):
    """Orthonormal coefficient columns (dim, 2) [v, J v] of the root plane
    in h = ker ad_rho with the largest alpha(h0); ties (aiii: one highest
    root per block) go to the plane that meets the lowest basis index.
    The root planes are the invariant planes of ad_H on the root part of
    h for a generic Cartan element H."""
    alg = case.alg
    stab = _kernel(alg.ad_matrix(case.rho))
    w, u = np.linalg.eigh(-(stab.T @ alg.jmat @ alg.jmat @ stab))
    roots = stab @ u[:, w > 0.5]              # J^2 = -1 here, 0 on t
    cartan = _kernel(alg.ad_matrix(alg.h0))
    generic = alg.from_coefficients(
        cartan @ np.random.default_rng(0).standard_normal(cartan.shape[1]))
    ev, vec = np.linalg.eig(roots.T @ alg.ad_matrix(generic) @ roots)
    ad_h0 = alg.ad_matrix(alg.h0)
    planes = []
    for k in np.flatnonzero(ev.imag > 0):
        v = roots @ vec[:, k].real
        v /= np.linalg.norm(v)
        plane = np.stack([v, alg.jmat @ v], axis=1)
        weight = (plane ** 2).sum(axis=1)
        planes.append((-round(float(np.linalg.norm(ad_h0 @ v)), 6),
                       int(np.flatnonzero(weight > 1e-9)[0]), plane))
    return min(planes, key=lambda p: p[:2])[2]


def fault_in_j(case, kind):
    """case rebuilt through hermsym._finish_case with J' = J - f P J P on
    the plane P of highest_compact_root_plane: kind 'halve' (f = 1/2, no
    r-matrix) or 'flip' (f = 2; on a simple root, the J of the
    neighbouring Weyl chamber)."""
    f = {"halve": 0.5, "flip": 2.0}[kind]
    plane = highest_compact_root_plane(case)
    proj = plane @ plane.T
    jmat = case.alg.jmat - f * proj @ case.alg.jmat @ proj
    alg = replace(case.alg, jmat=jmat, jflat=jmat.T @ case.alg.flat)
    return _finish_case(case.tag, case.params, case.name, alg, case.rho,
                        case.r_plus, case.chain_plan)


def ladder_gammas(n_letters, odd=False):
    """(words, gammas) of n_letters letters by the ladder construction."""
    words = sorted((w for p in range(n_letters + 1)
                    for w in combinations(range(1, n_letters + 1), p)),
                   key=lambda w: tuple(sorted(w, reverse=True)))
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    gammas = []
    if odd:
        gammas.append(np.diag([(-1.0) ** len(w) for w in words]).astype(complex))
    for i in range(1, n_letters + 1):
        c = np.zeros((dim, dim), complex)
        a = np.zeros((dim, dim), complex)
        for w in words:
            col = index[w]
            below = sum(1 for j in w if j < i)
            if i not in w:
                c[index[tuple(sorted(w + (i,)))], col] = (-1.0) ** below
            else:
                a[index[tuple(j for j in w if j != i)], col] = (-1.0) ** below
        gammas.append(c + a)
        gammas.append(1j * (c - a))
    return words, gammas


def bdi_chain_eigvalsh(case, ms):
    """chain_batch(case, ms) of a bdi case, with each a_k of a block of size
    >= 3 read as sqrt of the top eigenvalue of B^T B."""
    from pnorbit.spectrum import chain_batch
    batch = chain_batch(case, ms)
    a = batch["a"].copy()
    amb = case.alg.size
    for k in range(1, amb // 2 + (amb % 2)):
        size = amb - 2 * k
        if size >= 3:
            blk = ms[:, :size, :size]
            w = np.linalg.eigvalsh(np.swapaxes(blk, 1, 2) @ blk)
            a[:, k - 1] = np.sqrt(np.maximum(w[:, -1], 0.0))
    return {**batch, "a": a}


def gt_chain_eigvalsh(case, ms):
    """chain_batch(case, ms) of a GT case, every row by eigvalsh of its
    leading minor of -i b0."""
    n = case.params["n"]
    if case.tag == "diii":
        b0 = ((ms[:, :n, :n] + ms[:, n:, n:])
              + 1j * (ms[:, :n, n:] - ms[:, n:, :n])) / 2
    else:
        b0 = ms[:, :n, :n]
    rows = [np.linalg.eigvalsh(-1j * b0[:, :size, :size])
            for size in range(n, 0, -1)]
    if case.tag == "aiii":
        rows[0] = np.broadcast_to(top_row_constants(case), rows[0].shape)
    return {"kind": "gt", "rows": rows}


def kphi(case):
    """The symmetry K = exp(pi rho) of case."""
    return expm_antihermitian(np.pi * case.rho)


# ---------------------------------------------------------------------------
# checked algebra maps
# ---------------------------------------------------------------------------

def membership_residual(alg, x, complex_span=False):
    """Distance of x from g (or g_C when complex_span) via reconstruction."""
    c = alg.coefficients(x)
    if not complex_span:
        c = c.real
    return np.abs(x - alg.from_coefficients(c)).max()


def check_member(alg, x, tol=1e-10, complex_span=False):
    res = membership_residual(alg, x, complex_span)
    if res > tol * max(1.0, np.abs(x).max()):
        which = "g_C" if complex_span else "g"
        raise ConventionError(f"matrix is not in {which}: residual {res:.3e}")


def iwasawa_split(alg, z, side="+"):
    """Split z in g_C as z = x + C_pm(y), x, y in g; returns (x, y).

    One matrix or a stack (unchecked).  Closed form: write z = a + i b
    with a, b in g (anti-Hermitian and i-Hermitian parts); then y = b
    and x = a -/+ J(b).
    """
    z_dag = np.conj(np.swapaxes(z, -1, -2))
    a = (z - z_dag) / 2
    b = (z + z_dag) / 2j
    jb = alg.j_apply(b)
    return (a - jb if side == "+" else a + jb), b


def im_tr_pairing(a, b):
    """The Manin-triple pairing Im Tr(AB)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConventionError(f"incompatible shapes {a.shape} / {b.shape}")
    return float(np.trace(a @ b).imag)


def j_operator(alg, x, tol=1e-10):
    """J(x) for x in g.  Vanishes on t, squares to -1 on the root part."""
    check_member(alg, x, tol)
    return alg.j_apply(x)


def c_plus(alg, x, tol=1e-10):
    """C_+(x) = i x + J(x), the b_+ realization of x in g^*."""
    check_member(alg, x, tol)
    return alg.c_plus(x)


def c_minus(alg, x, tol=1e-10):
    """C_-(x) = i x - J(x)."""
    check_member(alg, x, tol)
    return 1j * x - alg.j_apply(x)


def iwasawa_project(alg, z, side="+", tol=1e-10):
    """Split z in g_C as z = x + C_pm(y) with x, y in g (iwasawa_split)."""
    z = np.asarray(z, complex)
    check_member(alg, z, tol, complex_span=True)
    if side not in ("+", "-"):
        raise ConventionError(f"side must be '+' or '-', got {side!r}")
    return iwasawa_split(alg, z, side)
