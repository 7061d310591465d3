"""The four families of compact hermitian symmetric spaces as adjoint orbits.

A Case bundles the ambient algebra, the orbit generator rho, the symmetry
K = exp(pi rho), the eigenbundle isometries W_+/W_-, and the subalgebra
chain data used for the eigenvalue extraction.  Orbit points are sampled
as m = g rho g^{-1} with g = exp of a Gaussian algebra element.

Case strings: ``aiii:k=2,n=4``  ``ci:n=3``  ``diii:n=4``  ``bdi:m=7``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import liealg
from .errors import ConventionError, UsageError
from .numkernel import expm_antihermitian


def sample_rng(seed, index):
    """Counter-based per-sample generator: reproducible and parallel-safe."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1),
                                                counter=int(index) << 64))


@dataclass
class Case:
    tag: str
    params: dict
    name: str
    alg: liealg.LieAlgebra
    rho: np.ndarray
    kphi: np.ndarray
    r_plus: complex
    r_minus: complex
    w_plus: np.ndarray
    w_minus: np.ndarray
    dim_m: int
    n_eig: int
    stabilizer: np.ndarray = field(repr=False)   # (dim_h, N, N)
    chain_plan: str = ""

    @property
    def map_offset(self):
        """Affine offset of the eigenvalue map lambda = -2*lt + offset."""
        return float((-2j * self.r_plus).real)

    def descriptor(self):
        kv = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.tag}:{kv}"


@dataclass
class OrbitPoint:
    case: Case
    g: np.ndarray
    m: np.ndarray


def _stabilizer_basis(alg, rho):
    """Orthonormal basis of h = ker ad_rho, as matrices."""
    ad = alg.ad_matrix(rho)
    # ad_rho has spectrum {0, +-i}; a 0.5 gap separates the kernel cleanly
    w, u = np.linalg.eigh(ad.T @ ad)
    kernel = u[:, w < 0.25]
    return np.einsum("ak,aij->kij", kernel, alg.basis)


def _validate_j_convention(alg, rho):
    """Residual of J|_{h_perp} = ad_rho, using ad_rho^2 = -1 on h_perp."""
    def ad(x):
        return rho @ x - x @ rho
    res = 0.0
    for x in alg.basis[:: max(1, alg.dim // 12)]:
        xp = -ad(ad(x))
        res = max(res, np.abs(alg.j_apply(xp) - ad(xp)).max())
    return res


def _finish_case(tag, params, name, alg, rho, r_plus, w_plus, w_minus, plan):
    # deterministic two-branch convention calibration: if J|_{h_perp} fails
    # to match ad_rho, flip the Weyl chamber once.
    if _validate_j_convention(alg, rho) > 1e-10:
        alg = liealg._negate_h0(alg)
        res = _validate_j_convention(alg, rho)
        if res > 1e-10:
            raise ConventionError(f"J convention failed for {name}: {res:.3e}")
    kphi = expm_antihermitian(np.pi * rho)
    stab = _stabilizer_basis(alg, rho)
    dim_m = alg.dim - len(stab)
    if dim_m % 2:
        raise ConventionError(f"odd orbit dimension {dim_m} for {name}")
    return Case(tag, params, name, alg, rho, kphi, r_plus, r_plus - 1j,
                w_plus, w_minus, dim_m, dim_m // 2, stab, plan)


def build_case(tag, **params):
    """Build one of the four families; see module docstring for tags."""
    tag = tag.lower()
    if tag == "aiii":
        k, n = int(params["k"]), int(params["n"])
        if not 1 <= k < n:
            raise ConventionError(f"aiii needs 1 <= k < n, got k={k}, n={n}")
        alg = liealg.build_algebra("A", n)
        rho = 1j / n * np.diag([n - k] * k + [-k] * (n - k)).astype(complex)
        w_plus = np.eye(n, k, dtype=complex)
        w_minus = np.eye(n, dtype=complex)[:, k:]
        return _finish_case(tag, dict(k=k, n=n), f"Gr({k},{n})", alg, rho,
                            1j * (n - k) / n, w_plus, w_minus,
                            f"u({n}) > u({n-1}) > ... > u(1), upper-left minors of m")
    if tag == "ci":
        n = int(params["n"])
        if n < 1:
            raise ConventionError("ci needs n >= 1")
        alg = liealg.build_algebra("C", n)
        rho = np.zeros((2 * n, 2 * n), complex)
        rho[:n, :n] = 0.5j * np.eye(n)
        rho[n:, n:] = -0.5j * np.eye(n)
        w_plus = np.eye(2 * n, n, dtype=complex)
        w_minus = np.eye(2 * n, dtype=complex)[:, n:]
        return _finish_case(tag, dict(n=n), f"Sp({n})/U({n})", alg, rho, 0.5j,
                            w_plus, w_minus,
                            f"sp({n}) > u({n}) > ... > u(1), minors of the V+ compression")
    if tag == "diii":
        n = int(params["n"])
        if n < 2:
            raise ConventionError("diii needs n >= 2")
        alg = liealg.build_algebra("D", n, cartan_style="split")
        rho = np.zeros((2 * n, 2 * n), complex)
        rho[:n, n:] = 0.5 * np.eye(n)
        rho[n:, :n] = -0.5 * np.eye(n)
        w_plus = np.vstack([np.eye(n), 1j * np.eye(n)]) / np.sqrt(2)
        w_minus = np.vstack([np.eye(n), -1j * np.eye(n)]) / np.sqrt(2)
        return _finish_case(tag, dict(n=n), f"SO({2*n})/U({n})", alg, rho, 0.5j,
                            w_plus, w_minus,
                            f"so({2*n}) > u({n}) > ... > u(1), minors of the V+ compression")
    if tag == "bdi":
        m = int(params["m"])
        if m < 4:
            raise ConventionError("bdi needs ambient size m >= 4")
        family = "B" if m % 2 else "D"
        alg = liealg.build_algebra(family, (m - 1) // 2 if m % 2 else m // 2,
                                   cartan_style="blocks")
        rho = np.zeros((m, m), complex)
        rho[m - 2, m - 1] = 1.0
        rho[m - 1, m - 2] = -1.0
        w_plus = np.eye(m, m - 2, dtype=complex)
        w_minus = np.eye(m, dtype=complex)[:, m - 2:]
        return _finish_case(tag, dict(m=m), f"SO({m})/SO({m-2})xSO(2)", alg, rho,
                            0.5j, w_plus, w_minus,
                            f"so({m}) > so({m-2})+so(2) > ..., spin-module minors")
    raise ConventionError(f"unknown case tag {tag!r}")


_CASE_PARAMS = {"aiii": ("k", "n"), "ci": ("n",), "diii": ("n",), "bdi": ("m",)}


def parse_case(text):
    """Parse a case descriptor string such as 'aiii:k=2,n=4'.

    Repeated parameters, and parameters the tag does not take, are rejected.
    """
    try:
        tag, _, rest = text.strip().partition(":")
        tag = tag.strip().lower()
        params = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if key in params:
                    raise ConventionError(f"repeated parameter {key!r}")
                params[key] = int(val)
        unknown = sorted(set(params) - set(_CASE_PARAMS.get(tag, params)))
        if unknown:
            raise ConventionError(f"{tag} takes no parameter {', '.join(unknown)}")
        return build_case(tag, **params)
    except (ConventionError, KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad case descriptor {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# orbit points
# ---------------------------------------------------------------------------

def moment(case, g, tol=1e-10):
    """mu(g) = g rho g^{-1}; g must satisfy the group constraints."""
    g = np.asarray(g, complex)
    check_group_element(case, g, tol=max(tol, 1e-10))
    return g @ case.rho @ g.conj().T


def group_residual(case, g):
    """Worst group-constraint residual of g or a stack of them: unitarity,
    plus det g = 1 (A), realness (B, D) or g J g^T = J (C)."""
    n = case.alg.size
    g = np.asarray(g, complex)
    g_t = np.swapaxes(g, -1, -2)
    res = np.abs(g_t.conj() @ g - np.eye(n)).max()
    fam = case.alg.family
    if fam == "A":
        fam_res = np.abs(np.linalg.det(g) - 1.0).max()
    elif fam in ("B", "D"):
        fam_res = np.abs(g.imag).max()
    else:  # C: the symplectic form
        jmat = np.zeros((n, n))
        jmat[: n // 2, n // 2:] = np.eye(n // 2)
        jmat[n // 2:, : n // 2] = -np.eye(n // 2)
        fam_res = np.abs(g @ jmat @ g_t - jmat).max()
    return float(max(res, fam_res))


def check_group_element(case, g, tol=1e-10):
    """Raise unless g (or every element of a stack) lies in the group."""
    n = case.alg.size
    if np.shape(g)[-2:] != (n, n):
        raise ConventionError(f"group element has shape {np.shape(g)}, expected ({n},{n})")
    res = group_residual(case, g)
    if res > tol:
        raise ConventionError(f"group constraint residual {res:.3e}")


def random_point(case, seed):
    """Deterministic random orbit point: sample 0 of batch_points(case, seed)."""
    g, m = batch_points(case, seed, 0, 1)
    return OrbitPoint(case, g[0], m[0])


def sample_coefficients(seed, start, count, dim):
    """The Gaussian coefficient draws of samples start..start+count-1,
    (count, dim): row i is sample_rng(seed, start + i).standard_normal(dim).

    One generator is re-pointed at each sample's counter by a state edit,
    which draws the same numbers as a fresh sample_rng per sample, faster.
    """
    coefs = np.empty((count, dim))
    bg = np.random.Philox(key=int(seed) & (2**64 - 1))
    gen = np.random.Generator(bg)
    state = bg.state
    for i in range(count):
        state["state"]["counter"][:] = 0
        state["state"]["counter"][1] = start + i
        state["buffer_pos"] = 4
        bg.state = state
        coefs[i] = gen.standard_normal(dim)
    return coefs


def batch_points(case, seed, start, count):
    """Orbit points for sample indices start..start+count-1 (stacked arrays).

    Sample i draws from the counter-(start+i) stream of sample_rng, so the
    result is independent of how a run is chunked or parallelized.  From
    the draws, x = coefs . basis is a stacked vector-matrix product per
    sample (a flat GEMM over the whole chunk would round a batch of one
    differently on some BLAS paths), then g = exp(x) and m = g rho g^dag,
    all as BLAS products.
    """
    coefs = sample_coefficients(seed, start, count, case.alg.dim)
    n = case.alg.size
    x = (coefs[:, None, :] @ case.alg.flat).reshape(count, n, n)
    g = expm_antihermitian(x)
    m = g @ case.rho @ np.conj(np.swapaxes(g, 1, 2))
    return g, m


def identity_point(case):
    return OrbitPoint(case, np.eye(case.alg.size, dtype=complex), case.rho.copy())


def idempotents(case, g):
    """e_pm = sigma_pm sigma_pm^dagger from the column blocks of g."""
    sp = g @ case.w_plus
    sm = g @ case.w_minus
    return sp @ sp.conj().T, sm @ sm.conj().T


def stabilizer_element(case, seed):
    """Random element of the stabilizer subgroup H (exp of centralizer)."""
    rng = seed if isinstance(seed, np.random.Generator) else sample_rng(seed, 0)
    c = rng.standard_normal(len(case.stabilizer))
    return expm_antihermitian(np.einsum("k,kij->ij", c, case.stabilizer))


# ---------------------------------------------------------------------------
# torus-fixed points (Weyl images of rho), used for polytope vertices
# ---------------------------------------------------------------------------

def torus_fixed_points(case):
    """Group elements g with g rho g^{-1} a Weyl image of rho."""
    from itertools import combinations
    out = []
    if case.tag == "aiii":
        k, nn = case.params["k"], case.params["n"]
        base = list(range(nn))
        for plus in combinations(base, k):
            perm = list(plus) + [j for j in base if j not in plus]
            p = np.zeros((nn, nn), complex)
            for col, row in enumerate(perm):
                p[row, col] = 1.0
            if abs(np.linalg.det(p) - 1) > 0.5:
                p[:, 0] *= -1
            out.append(p)
    elif case.tag == "ci":
        nn = case.params["n"]
        flips = []
        for j in range(nn):
            a = np.eye(nn)
            a[j, j] = 0
            b = np.zeros((nn, nn))
            b[j, j] = 1
            g = np.zeros((2 * nn, 2 * nn), complex)
            g[:nn, :nn] = a
            g[:nn, nn:] = b
            g[nn:, :nn] = -b
            g[nn:, nn:] = a
            flips.append(g)
        for signs in np.ndindex(*([2] * nn)):
            g = np.eye(2 * nn, dtype=complex)
            for j, s in enumerate(signs):
                if s:
                    g = flips[j] @ g
            out.append(g)
    elif case.tag == "diii":
        nn = case.params["n"]
        for bits in np.ndindex(*([2] * (nn - 1))):
            flip = [j for j, b in enumerate(bits) if b]
            if len(flip) % 2:
                flip.append(nn - 1)
            diag = np.ones(2 * nn)
            half = len(flip) // 2
            for j in flip[:half]:
                diag[j] = -1
            for j in flip[half:]:
                diag[nn + j] = -1
            out.append(np.diag(diag).astype(complex))
    else:  # bdi: move the rho block to each so(2) block, both orientations
        m = case.params["m"]
        start = m % 2
        nblocks = (m - start) // 2
        pairs = [(start + 2 * j, start + 2 * j + 1) for j in range(nblocks)]
        src = pairs[-1]
        for dst in pairs:
            for tgt in (dst, (dst[1], dst[0])):
                p = np.zeros((m, m))
                p[tgt[0], src[0]] = 1.0
                p[tgt[1], src[1]] = 1.0
                rest_src = [j for j in range(m) if j not in src]
                rest_tgt = [j for j in range(m) if j not in tgt]
                for s_, t_ in zip(rest_src, rest_tgt):
                    p[t_, s_] = 1.0
                if np.linalg.det(p) < 0:
                    # flip one coordinate outside the target block: harmless
                    # for the conjugated rho (supported on tgt only)
                    p[rest_tgt[0], :] *= -1
                out.append(p.astype(complex))
    return out
