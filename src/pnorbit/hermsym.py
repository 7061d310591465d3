"""The four families of compact hermitian symmetric spaces as adjoint orbits.

A Case bundles the ambient algebra, the orbit generator rho and its
eigenvalue r_+, the stabilizer h = ker ad_rho with the
tangent basis T0 of its complement, the base data of the bracket layer
(the restrictions K_T, J_T of K0 = -ad_rho and J to T0) and the subalgebra
chain data used for the eigenvalue extraction.  All of it comes from one
ad_rho, and a case is certified when it is built: the J convention
J|_{h_perp} = ad_rho and the complex structure K0^2 = -T0 T0^T (see
_finish_case), so no case that fails either exists.  Orbit points are
sampled as m = g rho g^{-1} with g = exp of a Gaussian algebra element.
The so-families (diii, bdi) are real forms: their rho and algebra basis
are real, so their samples g and m are float64.  Bulk draws (point_chunks)
come in chunks whose g stack holds at most SAMPLE_CHUNK_BYTES (512 KiB;
one sample where a single g is larger), so their memory does not grow
with N^2.

Case strings: ``aiii:k=2,n=4``  ``ci:n=3``  ``diii:n=4``  ``bdi:m=7``.
"""

import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

from . import liealg
from .errors import ConventionError, NumericalError, UsageError
from .numkernel import expm_antihermitian

CSTRUCT_TOL = 1e-12             # max|K0^2 + T0 T0^T|, for K^+ = -K
SAMPLE_CHUNK_BYTES = 1 << 19    # point_chunks: bytes of one chunk's (count, N, N) g


@dataclass
class Case:
    tag: str
    params: dict
    name: str
    alg: liealg.LieAlgebra
    rho: np.ndarray
    r_plus: complex
    dim_m: int
    n_eig: int
    stabilizer: np.ndarray = field(repr=False)   # (dim_h, N, N)
    tangent: np.ndarray = field(repr=False)      # (dim, dim_m) T0, orthonormal
    k_t: np.ndarray = field(repr=False)          # (dim_m, dim_m) T0^T K0 T0
    j_t: np.ndarray = field(repr=False)          # (dim_m, dim_m) T0^T J T0
    tangent_side: np.ndarray = field(repr=False)  # (N, dim_m N) [Y_0 | Y_1 | ...]
    chain_plan: str = ""
    # fd step h -> poisson's flow data, formed on first use
    flow_data: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

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


def _finish_case(tag, params, name, alg, rho, r_plus, plan):
    """The Case of rho, with every base datum from one ad_rho.

    One eigh of ad_rho^T ad_rho gives h = ker ad_rho (stabilizer) and its
    complement, the tangent space at rho, as orthonormal coefficient
    columns T0.  Two certificates follow on the whole tangent space: the
    J convention J T0 = ad_rho T0 (the Weyl chambers of liealg are chosen
    so that J|_{h_perp} = ad_rho; ConventionError above 1e-10), and the
    complex structure K0^2 = -T0 T0^T of K0 = -ad_rho, which gives the
    bracket layer K^+ = -K (NumericalError above CSTRUCT_TOL).  The
    tangent basis Y_j = sum_b T0[b, j] X_b, side by side, lets the
    bracket layer read its tangent frame from g (poisson._tangent).
    """
    ad = alg.ad_matrix(rho)
    # ad_rho has spectrum {0, +-i}; a 0.5 gap separates the kernel cleanly
    w, u = np.linalg.eigh(ad.T @ ad)
    stab, tangent = alg.from_coefficients(u[:, w < 0.25].T), u[:, w >= 0.25]
    dim_m = tangent.shape[1]
    if dim_m % 2:
        raise ConventionError(f"odd orbit dimension {dim_m} for {name}")
    res = np.abs((alg.jmat - ad) @ tangent).max()
    if res > 1e-10:
        raise ConventionError(f"J convention failed for {name}: {res:.3e}")
    k0 = -ad
    defect = np.abs(k0 @ k0 + tangent @ tangent.T).max()
    if defect > CSTRUCT_TOL:
        raise NumericalError(
            f"KKS matrix is no complex structure: max|K0^2 + T0 T0^T| = "
            f"{defect:.3e} > {CSTRUCT_TOL:g}")
    k_t = tangent.T @ k0 @ tangent
    j_t = tangent.T @ alg.jmat @ tangent
    tangent_side = alg.side_by_side(alg.from_coefficients(tangent.T))
    for arr in (k_t, j_t, tangent_side):
        arr.flags.writeable = False
    return Case(tag, params, name, alg, rho, r_plus, dim_m, dim_m // 2, stab,
                tangent, k_t, j_t, tangent_side, plan)


def build_case(tag, **params):
    """Build one of the four families; see module docstring for tags."""
    tag = tag.lower()
    if tag == "aiii":
        k, n = int(params["k"]), int(params["n"])
        if not 1 <= k < n:
            raise ConventionError(f"aiii needs 1 <= k < n, got k={k}, n={n}")
        alg = liealg.build_algebra("A", n)
        rho = 1j / n * np.diag([n - k] * k + [-k] * (n - k)).astype(complex)
        return _finish_case(tag, dict(k=k, n=n), f"Gr({k},{n})", alg, rho,
                            1j * (n - k) / n,
                            f"u({n}) > u({n-1}) > ... > u(1), upper-left minors of m")
    if tag == "ci":
        n = int(params["n"])
        if n < 1:
            raise ConventionError("ci needs n >= 1")
        alg = liealg.build_algebra("C", n)
        rho = np.zeros((2 * n, 2 * n), complex)
        rho[:n, :n] = 0.5j * np.eye(n)
        rho[n:, n:] = -0.5j * np.eye(n)
        return _finish_case(tag, dict(n=n), f"Sp({n})/U({n})", alg, rho, 0.5j,
                            f"sp({n}) > u({n}) > ... > u(1), minors of the V+ compression")
    if tag == "diii":
        n = int(params["n"])
        if n < 2:
            raise ConventionError("diii needs n >= 2")
        alg = liealg.build_algebra("D", n, cartan_style="split")
        rho = np.zeros((2 * n, 2 * n))
        rho[:n, n:] = 0.5 * np.eye(n)
        rho[n:, :n] = -0.5 * np.eye(n)
        return _finish_case(tag, dict(n=n), f"SO({2*n})/U({n})", alg, rho, 0.5j,
                            f"so({2*n}) > u({n}) > ... > u(1), minors of the V+ compression")
    if tag == "bdi":
        m = int(params["m"])
        if m < 4:
            raise ConventionError("bdi needs ambient size m >= 4")
        family = "B" if m % 2 else "D"
        alg = liealg.build_algebra(family, (m - 1) // 2 if m % 2 else m // 2,
                                   cartan_style="blocks")
        rho = np.zeros((m, m))
        rho[m - 2, m - 1] = 1.0
        rho[m - 1, m - 2] = -1.0
        return _finish_case(tag, dict(m=m), f"SO({m})/SO({m-2})xSO(2)", alg, rho,
                            0.5j,
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

def conjugate_rho(case, g):
    """g rho g^dag for one matrix g or a stack (..., N, N), unchecked."""
    # ndarray.conj() of a real g is g itself: no copy for the so-families
    return g @ case.rho @ np.swapaxes(g, -1, -2).conj()


def moment(case, g):
    """mu(g) = g rho g^{-1} for one g or a stack; each must pass
    check_group_element."""
    g = np.asarray(g)
    check_group_element(case, g)
    return conjugate_rho(case, g)


def group_residual(case, g):
    """Worst group-constraint residual of g or a stack of them: unitarity,
    plus det g = 1 (A), realness (B, D) or g J g^T = J (C)."""
    n = case.alg.size
    g = np.asarray(g)
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


def philox_key(seed):
    """The 64-bit Philox key of seed, which must lie in [0, 2**64): the key
    is 64 bits wide, so any other seed would alias seed % 2**64
    (UsageError)."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed must be in [0, 2**64), got {seed}")
    return seed


class _PhiloxState(ctypes.Structure):
    """numpy's C philox_state (numpy/random/src/philox/philox.h).  Only
    its address, Philox.ctypes.state_address, is public API; the layout
    is numpy's own, so it is checked once per process (_layout_holds)
    before the sampler writes through it."""
    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int),
                ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


def _repoint_in_place(bg, layout):
    """Re-point bg at sample index by writing its C state: counter words
    (0, index, 0, 0), an empty block buffer and no buffered uint32."""
    st = layout.from_address(bg.ctypes.state_address)
    ctr = st.ctr.contents

    def repoint(index, bg=bg):      # bg keeps the state st points into alive
        ctr[0] = 0
        ctr[1] = index
        ctr[2] = 0
        ctr[3] = 0
        st.buffer_pos = 4
        st.has_uint32 = 0
    return repoint


def _repoint_by_state(bg):
    """Re-point bg at sample index through its state dict."""
    state = bg.state
    counter = state["state"]["counter"]

    def repoint(index):
        counter[:] = 0
        counter[1] = index
        state["buffer_pos"] = 4
        bg.state = state
    return repoint


@functools.cache
def _layout_holds(layout):
    """Whether layout is numpy's philox_state, checked on one probe
    generator.  The probe's counter and key must read back through the
    layout before anything is written; then the probe is dirtied (a
    buffered uint32, a part-used block), re-pointed in place, and must
    draw what a fresh generator at that counter draws and read back the
    same counter, buffer and flags through bg.state."""
    key, index, dirty = 2**64 - 3, 2**64 - 2, 2**255 + 2**130 + 2**64 + 1
    probe = np.random.Philox(key=key, counter=dirty)
    fresh = np.random.Philox(key=key, counter=index << 64)
    st = layout.from_address(probe.ctypes.state_address)
    try:
        ctr, key_words = list(st.ctr.contents), list(st.key.contents)
    except ValueError:              # a NULL pointer where ctr or key should be
        return False
    if ctr != probe.state["state"]["counter"].tolist() or key_words != [key, 0]:
        return False
    np.random.Generator(probe).integers(2**32, dtype=np.uint32)
    _repoint_in_place(probe, layout)(index)
    drawn = [np.random.Generator(bg).standard_normal(9) for bg in (probe, fresh)]
    got, want = probe.state, fresh.state
    return (np.array_equal(*drawn)
            and np.array_equal(got["state"]["counter"], want["state"]["counter"])
            and np.array_equal(got["buffer"], want["buffer"])
            and (got["buffer_pos"], got["has_uint32"])
            == (want["buffer_pos"], want["has_uint32"]))


def sample_coefficients(seed, start, count, dim):
    """The Gaussian coefficient draws of samples start..start+count-1,
    (count, dim): row i is standard_normal(dim) from a Philox generator
    keyed by philox_key(seed) with counter (start + i) << 64, so each
    sample has its own reproducible stream.  Sample indices must lie in
    [0, 2**64): a counter word holds 64 bits, so a larger index would
    alias another sample (ValueError).

    One generator is re-pointed at each sample's counter, which draws the
    same numbers as a fresh generator per sample, faster.  Philox is
    counter-based, so re-pointing writes the counter (0, start + i, 0, 0)
    straight into numpy's C philox_state at Philox.ctypes.state_address,
    empties the block buffer and clears the buffered uint32.  That layout
    is numpy's, not public API, so it is checked once per process on the
    first call (_layout_holds); if it does not hold, the same loop
    re-points through the bg.state dict instead, with the same draws.
    """
    start, count = int(start), int(count)
    if start < 0 or start + count > 2**64:
        raise ValueError(f"sample indices {start}..{start + count - 1} "
                         f"must lie in [0, 2**64)")
    coefs = np.empty((count, dim))
    bg = np.random.Philox(key=philox_key(seed))
    normal = np.random.Generator(bg).standard_normal
    repoint = (_repoint_in_place(bg, _PhiloxState)
               if _layout_holds(_PhiloxState) else _repoint_by_state(bg))
    for index, row in enumerate(coefs, start):
        repoint(index)
        normal(out=row)
    return coefs


def _exp_samples(seed, start, count, generators):
    """exp(c . generators) per sample, (count, N, N), for generators (K, N, N)
    of an algebra; sample i draws c from stream (seed, start + i).  The
    so-families' generators are real, and so are their samples.  One
    vector-matrix product per sample: a flat GEMM would round a batch of
    one differently."""
    k, n = len(generators), generators.shape[-1]
    coefs = sample_coefficients(seed, start, count, k)
    x = coefs[:, None, :] @ generators.reshape(k, n * n)
    return expm_antihermitian(x.reshape(count, n, n))


def batch_points(case, seed, start, count):
    """Orbit points g, m = g rho g^dag for sample indices start..start+count-1:
    g = exp of a Gaussian algebra element, drawn as in _exp_samples."""
    g = _exp_samples(seed, start, count, case.alg.basis)
    return g, conjugate_rho(case, g)


def point_chunks(case, seed, count):
    """batch_points over sample indices 0..count-1, in chunks: yields
    (start, g, m) per chunk.  A chunk takes as many samples as fit one
    (N, N) stack of the algebra's element type in SAMPLE_CHUNK_BYTES,
    max(1, SAMPLE_CHUNK_BYTES // (itemsize N^2)), so a bulk draw's working
    set is bounded in bytes, not in samples: 2048 samples on Gr(2,4), 128
    on Sp(8)/U(8).  Every sample has its own Philox counter, so the chunking
    moves no value."""
    step = max(1, SAMPLE_CHUNK_BYTES
               // (case.alg.basis.itemsize * case.alg.size ** 2))
    for start in range(0, count, step):
        # no local keeps a chunk alive while the caller draws the next
        yield (start, *batch_points(case, seed, start, min(step, count - start)))


def identity_point(case):
    g = np.eye(case.alg.size, dtype=case.alg.basis.dtype)
    return OrbitPoint(case, g, case.rho.copy())


def stabilizer_elements(case, seed, start, count):
    """Elements of the stabilizer H = exp(h), h = ker ad_rho, for sample
    indices start..start+count-1, (count, N, N), drawn like batch_points."""
    return _exp_samples(seed, start, count, case.stabilizer)


# ---------------------------------------------------------------------------
# torus-fixed points (Weyl images of rho), used for polytope vertices
# ---------------------------------------------------------------------------

def torus_fixed_points(case):
    """Group elements g with g rho g^{-1} a Weyl image of rho, in the
    algebra's dtype (float64 for the real forms diii and bdi)."""
    from itertools import combinations
    out, dtype = [], case.alg.basis.dtype
    if case.tag == "aiii":
        k, nn = case.params["k"], case.params["n"]
        base = list(range(nn))
        for plus in combinations(base, k):
            perm = list(plus) + [j for j in base if j not in plus]
            p = np.zeros((nn, nn), dtype)
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
            g = np.zeros((2 * nn, 2 * nn), dtype)
            g[:nn, :nn] = a
            g[:nn, nn:] = b
            g[nn:, :nn] = -b
            g[nn:, nn:] = a
            flips.append(g)
        for signs in np.ndindex(*([2] * nn)):
            g = np.eye(2 * nn, dtype=dtype)
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
            out.append(np.diag(diag).astype(dtype))
    else:  # bdi: move the rho block to each so(2) block, both orientations
        m = case.params["m"]
        start = m % 2
        nblocks = (m - start) // 2
        pairs = [(start + 2 * j, start + 2 * j + 1) for j in range(nblocks)]
        src = pairs[-1]
        for dst in pairs:
            for tgt in (dst, (dst[1], dst[0])):
                p = np.zeros((m, m), dtype)
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
                out.append(p)
    return out
