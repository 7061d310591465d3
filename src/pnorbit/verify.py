"""Calibration and the per-case verification suite.

`calibrate` certifies the bracket convention that `poisson` is written at
by a discrete check: s_K against the hamiltonian convention (the
fundamental flow of X is minus the PK-hamiltonian flow of F_X, measured by
finite differences) and s_0 s_K against the closed-form Nijenhuis formula.
Of the four sign pairs exactly poisson.CALIBRATED_SIGNS may pass; anything
else aborts.

`run_suite` then certifies every checkable identity at a desk-scale
sample size and emits a structured report.  It samples once (g, m, the
chain data and the gap-regular points), builds one bracket pair over the
samples and hands them to one plain function per check group, each
returning {check name: max residual}: `_orbit_checks`, `_identity_coset`,
`_coset_invariance`, `_pencil_checks` (the pencil at every sample),
`_regular_point_checks` (the fd checks at the gap-regular points, rows of
that pair), `_spin_checks` (bdi only), plus the polytope margins and
`vertex_probe`.  The report lists the merged checks in DEFAULT_TOLERANCES
order.  How many points go into one bracket call is the bracket layer's
own affair (poisson's byte budget): this module passes whole stacks.
"""

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hermsym, poisson, spectrum, spinrep
from .errors import CalibrationError, UsageError

# also the report's check order: run_suite lists its checks in this order
DEFAULT_TOLERANCES = {
    "orbit_constraints": 1e-11,
    "spectrum_preserved": 1e-10,
    "identity_coset_zero": 1e-10,
    "coset_invariance": 1e-9,
    "connection_master": 1e-8,
    "pencil_chain_match": 1e-7,
    "doubling": 1e-8,
    "pencil_reality": 1e-8,
    "interlacing": 1e-9,
    "polytope": 1e-9,
    "involution_kks": 1e-5,
    "involution_bruhat": 1e-5,
    "jacobi_t0": 1e-5,
    "jacobi_t1": 1e-5,
    "lenard": 1e-5,
    "trace_identity": 1e-9,
    "nstar_dlambda": 1e-5,
    "vertex_polytope": 1e-10,
    "spin_clifford": 1e-13,
    "spin_homomorphism": 1e-10,
    "spin_last_rot": 1e-12,
    "spin_weights": 1e-12,
    "spin_triangular": 1e-10,
    "spin_minor": 1e-9,
}
GAP_THRESHOLD = 1e-3      # near-degenerate exclusion for fd-based checks
CALIBRATION_SEED = 2025   # calibrate: sample stream on Gr(1,2)
CALIBRATION_POINTS = 10
CALIBRATION_TOL = 1e-8    # the one passing sign pair's residual bound
RANGE_TOL = 1e-6          # measure_diii_normalization: slack at the ends
RANGE_DRAW = 512          # measure_diii_normalization: samples per draw


@dataclass
class Calibration:
    residuals: dict       # {(s_k, s_0): residual}

    @property
    def signs(self):
        """(s_k, s_0): calibrate returns only when this is the unique pass."""
        return poisson.CALIBRATED_SIGNS


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    skipped: int = 0


@dataclass
class VerificationReport:
    case: str
    name: str
    params: dict
    seed: int
    samples: int
    calibration: dict
    checks: list = field(default_factory=list)
    ranges: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        payload = {
            "case": self.case,
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
            "samples": self.samples,
            "calibration": self.calibration,
            "checks": [{"name": c.name, "max_residual": c.max_residual
                        if np.isfinite(c.max_residual) else None,  # inf: null
                        "tolerance": c.tolerance, "pass": c.passed,
                        "skipped": c.skipped} for c in self.checks],
            # a non-finite range end is null, as in the polytope summary
            "ranges": {lbl: {key: v if np.isfinite(v) else None
                             for key, v in ends.items()}
                       for lbl, ends in self.ranges.items()},
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
        }
        return json.dumps(payload, indent=2, allow_nan=False)


def _tangent_vectors(pair, x):
    """The tangent vectors v = [x, m] at the pair's points, each scaled to
    at most unit coefficient norm: the Frobenius norm, as the basis is
    orthonormal under -Tr(AB)."""
    m = pair.point.m
    v = x @ m - m @ x
    v /= np.maximum(1.0, np.linalg.norm(v, axis=(-2, -1)))[..., None, None]
    return v


def _calibration_residuals(case, points):
    """{(s_K, s_0): worst of (hamiltonian-convention fd gap, formula-vs-
    pencil gap)} for the four sign pairs, over the stack of points.

    The fd gap of s_K is |w + s_K T^T K| per point, relative to the point's
    max|K|, with w the tangent-frame flow derivatives T^T dvec of all
    coordinates and K = kks_raw(m) from the dense route (the fundamental
    flow of X_a moves F_b by dvec_a[b] = -K[a, b]); the pencil P0 PK^+ at
    (s_K, s_0) is -s_0 s_K times the pencil at the convention, an exact
    sign flip.
    """
    pair = poisson.build_pair(case, points)
    k = poisson.kks_raw(case, pair.point.m)
    scale = np.maximum(1.0, np.abs(k).max(axis=(-2, -1)))
    tk = np.swapaxes(pair.tangent, -1, -2) @ k
    w = poisson.directional_derivatives(
        case, points, lambda flow: case.alg.real_coefficients(flow.m))
    fd_gap = {s_k: (np.abs(w + s_k * tk).max(axis=(-2, -1)) / scale).max()
              for s_k in (1, -1)}
    # the same three directions (axis 0) at every point
    rng = np.random.default_rng(17)
    x = case.alg.from_coefficients(rng.standard_normal((3, 1, case.alg.dim)))
    v = _tangent_vectors(pair, x)
    n_pencil = poisson.nijenhuis_apply(pair, v, check=False)
    n_formula = poisson.nijenhuis_formula(case, pair.point.m, v)
    pencil_gap = {flip: np.abs(flip * n_pencil - n_formula).max()
                  for flip in (1, -1)}
    return {(s_k, s_0): max(fd_gap[s_k], pencil_gap[-s_0 * s_k])
            for s_k in (1, -1) for s_0 in (1, -1)}


@lru_cache(maxsize=None)
def calibrate():
    """Certify poisson.CALIBRATED_SIGNS on Gr(1,2): of the 4 sign pairs it
    must be the only one that passes."""
    case = hermsym.build_case("aiii", k=1, n=2)
    g_batch, _ = hermsym.batch_points(case, CALIBRATION_SEED, 0, CALIBRATION_POINTS)
    residuals = _calibration_residuals(case, g_batch)
    passing = [p for p, r in residuals.items() if r <= CALIBRATION_TOL]
    if passing != [poisson.CALIBRATED_SIGNS]:
        raise CalibrationError(
            f"calibration must single out {poisson.CALIBRATED_SIGNS}, got "
            f"{passing} from residuals {residuals}")
    return Calibration(residuals)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _gap_regular_points(case, seed, chain, n_needed, max_index):
    """Deterministic scan, in sample-index order, for the first n_needed
    gap-regular points among the first max_index samples.

    The drawn batch (its chain data given) is the first chunk; later
    chunks draw only as many samples as are still missing.  Returns the
    batch indices of the points found in it, (g, m) of those drawn past it
    (empty if the scan drew nothing) and the count of samples skipped.
    """
    gaps = spectrum.gap_regularity(case, chain)
    batch = np.flatnonzero(gaps > GAP_THRESHOLD)[:n_needed]
    past, idx, need = [], len(gaps), n_needed - len(batch)
    skipped = (idx if need else int(batch[-1]) + 1) - len(batch)
    while need and idx < max_index:
        g_batch, m_batch = hermsym.batch_points(
            case, seed, idx, min(need, max_index - idx))
        found = np.flatnonzero(spectrum.gap_regularity(
            case, spectrum.chain_batch(case, m_batch)) > GAP_THRESHOLD)[:need]
        need -= len(found)
        skipped += (len(g_batch) if need else int(found[-1]) + 1) - len(found)
        past.append((g_batch[found], m_batch[found]))
        idx += len(g_batch)
    return batch, tuple(np.concatenate(x) for x in zip(*past)), skipped


def _involution_residuals(pair, w):
    """Largest off-diagonal bracket of the free chain eigenvalues under
    each bracket, over a stacked pair's points, from
    w = poisson.chain_gradient(pair)."""
    diag = np.eye(w.shape[-1], dtype=bool)
    brackets = poisson.gradient_bracket(pair, np.swapaxes(w, -1, -2))
    return {which: np.abs(np.where(diag, 0.0, br)).max()
            for which, br in zip(("kks", "bruhat"), brackets)}


def _orbit_checks(case, g, m):
    """The samples lie in the group, and m = g rho g^dag keeps rho's
    spectrum."""
    rho_spec = np.linalg.eigvalsh(-1j * case.rho)
    return {"orbit_constraints": hermsym.group_residual(case, g),
            "spectrum_preserved":
                np.abs(np.linalg.eigvalsh(-1j * m) - rho_spec).max()}


def _identity_coset(case):
    """At the identity coset N_r = 0 (so P0 = 0), and the chain and pencil
    eigenvalues are 0."""
    pair = poisson.build_pair(case, hermsym.identity_point(case).g)
    return {"identity_coset_zero": max(
        np.abs(pair.nr).max(),
        np.abs(spectrum.chain_free_vector(case, case.rho)).max(),
        np.abs(poisson.pencil_eigenvalues(pair)[0]).max())}


def _coset_invariance(case, seed, g, m):
    """P0 and the moment map are constant on cosets: the first n_co points,
    each with 4 stabilizer moves (index 4 i + j), on the dense per-point
    route."""
    n_co = min(5, len(g))
    hs = hermsym.stabilizer_elements(case, seed ^ 0xC05E7, 0, 4 * n_co)
    gh = g[:n_co, None] @ hs.reshape((n_co, 4) + hs.shape[1:])
    res = np.abs(m[:n_co, None] - hermsym.conjugate_rho(case, gh)).max()
    gs = np.concatenate([g[:n_co, None], gh], axis=1)
    p0 = poisson.bruhat_matrix(case, gs).reshape(n_co, 5, -1)
    scale = np.maximum(1.0, np.abs(p0[:, :1]).max(axis=-1))
    res = max(res, (np.abs(p0[:, 1:] - p0[:, :1]).max(axis=-1) / scale).max())
    return {"coset_invariance": res}


def _pencil_checks(case, seed, pair, chain_sorted):
    """The pencil at every sample, on the one pair of all samples: the
    connection formula against the pencil (poisson.connection_check) along
    v = [x, m] for five basis directions x, one at a time, then checks,
    not a raise, on the pencil (reality, doubling, chain = pencil,
    Tr N = 2 sum(lambda_chain)), and the Jacobi identity at t = 0 and
    t = 1 at the first sample."""
    dirs = case.alg.basis[[(j * case.alg.dim) // 5 for j in range(5)]]
    rng = np.random.default_rng(seed ^ 0x1ACB)
    triples = [tuple(rng.choice(case.alg.dim, size=3, replace=False))
               for _ in range(20)]
    ev, im = poisson.pencil_eigenvalues(pair)
    trace = np.trace(pair.nr, axis1=-2, axis2=-1)
    jacobi = poisson.jacobi_residual(pair[0], triples)
    return {
        "connection_master": max(
            poisson.connection_check(pair, _tangent_vectors(pair, x))
            for x in dirs),
        "pencil_chain_match":
            np.abs((ev[:, 0::2] + ev[:, 1::2]) / 2 - chain_sorted).max(),
        "doubling": np.abs(ev[:, 0::2] - ev[:, 1::2]).max(),
        "pencil_reality": im.max(),
        "trace_identity": np.abs(trace - 2 * chain_sorted.sum(axis=-1)).max(),
        "jacobi_t0": jacobi["t0"], "jacobi_t1": jacobi["t1"]}


def _regular_point_checks(case, reg, target):
    """At the gap-regular points reg, one pair: involution under both
    brackets, and at the first three the Lenard recursion and N^* d(lambda).
    A check that finds too few points (target for the involutions, one for
    the others) reads inf, and then only the first three chain gradients
    are formed."""
    res = dict.fromkeys(("involution_kks", "involution_bruhat", "lenard",
                         "nstar_dlambda"), np.inf)
    if not len(reg.tangent):
        return res
    if len(reg.tangent) == target:
        grads = poisson.chain_gradient(reg)
        res.update((f"involution_{k}", r) for k, r
                   in _involution_residuals(reg, grads).items())
    else:
        grads = poisson.chain_gradient(reg[:3])
    # k_max = n_eig is the recursion's length; at n_eig = 1 it has no
    # step, so those cases check dI_2 = N^* dI_1
    res["lenard"] = poisson.lenard_check(reg[:3], max(2, case.n_eig))["max"]
    res["nstar_dlambda"] = poisson.nstar_eigen_residual(reg[:3], grads[:3])
    return res


def _spin_checks(case, m, chain, seed):
    """The spin module of bdi: Clifford relations, S a homomorphism,
    S(rho), the weights of a torus element, upper-triangular c_plus and
    the spectra of S(m)'s leading blocks against the chain data."""
    rep = spinrep.SpinRepresentation(case.alg.size)
    amb = case.alg.size
    nl = rep.n_letters
    eye = np.eye(rep.dim)
    prod = rep.gammas[:, None] @ rep.gammas[None]          # G_a G_b
    anti = prod + prod.swapaxes(0, 1)
    res = {"spin_clifford":
           np.abs(anti - 2.0 * np.eye(amb)[:, :, None, None] * eye).max()}

    rng = np.random.default_rng(seed ^ 0x51)
    d = case.alg.dim
    xy = case.alg.from_coefficients(rng.standard_normal((20, 2, d)))
    x, y = xy[:, 0], xy[:, 1]
    sx, sy = rep(x), rep(y)
    res["spin_homomorphism"] = np.abs(
        rep(x @ y - y @ x) - (sx @ sy - sy @ sx)).max()

    s_rho = rep(case.rho)
    target = 1j * (rep.gamma_bar_gamma(nl) - 0.5 * eye)
    res["spin_last_rot"] = np.abs(s_rho - target).max()

    thetas = rng.standard_normal(nl)
    h = np.zeros((amb, amb))
    rows = amb % 2 + 2 * np.arange(nl)
    h[rows, rows + 1] = thetas
    h[rows + 1, rows] = -thetas
    got = np.linalg.eigvalsh(-1j * rep(h))
    bits = np.arange(2 ** nl)[:, None] >> np.arange(nl) & 1
    want = np.sort((2 * bits - 1) @ thetas / 2)
    res["spin_weights"] = np.abs(got - want).max()

    cp = case.alg.c_plus(case.alg.from_coefficients(rng.standard_normal((20, d))))
    s = rep(cp.real) + 1j * rep(cp.imag)         # complex-linear extension
    res["spin_triangular"] = np.abs(np.tril(s, -1)).max()

    # the leading 2^(nl-k) block of S(m) has spectrum i(+-a_k + sum_j<=k b_j)/2
    n = min(20, len(m))
    s_m = rep(m[:n])
    a, b = chain["a"][:n], chain["b"][:n]
    ssum = np.cumsum(b, axis=1)
    res["spin_minor"] = 0.0
    for k in range(1, b.shape[1] + 1):
        size = 2 ** (nl - k)
        a_k = np.abs(a[:, k - 1]) if k <= a.shape[1] else np.zeros(n)
        signs = np.repeat([-1.0, 1.0], size // 2) if size > 1 else np.zeros(1)
        want = (ssum[:, k - 1, None] + signs * a_k[:, None]) / 2
        got = np.linalg.eigvalsh(-1j * s_m[:, :size, :size])
        res["spin_minor"] = max(res["spin_minor"], np.abs(got - want).max())
    return res


def vertex_probe(case):
    """Chain spectrum at the torus-fixed points: every free eigenvalue must
    sit on a polytope vertex value (0 or 2), membership included."""
    gs = np.stack(hermsym.torus_fixed_points(case))
    hermsym.check_group_element(case, gs, tol=1e-12)
    # the fixed points, then the identity coset (the all-zeros vertex)
    ms = np.concatenate([hermsym.conjugate_rho(case, gs), case.rho[None]])
    chain = spectrum.chain_batch(case, ms)
    _, _, vals = spectrum.batch_free_values(case, chain)
    fixed, identity = vals[:-1], vals[-1]
    worst = float(np.minimum(np.abs(fixed), np.abs(fixed - 2)).max())
    margins = spectrum.batch_margins(case, chain)
    worst = max(worst, 0.0, *(float(v[:-1].max()) for v in margins.values()))
    worst = max(worst, float(np.abs(identity).max()))
    if not (np.abs(fixed).max(axis=1) <= 1e-10).any():
        worst = max(worst, 1.0)
    return worst


def run_suite(case, n_samples=100, seed=0, tolerances=None):
    """Run every check for one case; returns a VerificationReport with
    the checks in DEFAULT_TOLERANCES order.

    One bracket pair holds every sample, and the gap-regular points are
    its rows (joined with a pair of the points the scan draws past the
    batch).  Its memory cost is T for every sample:
    n_samples x dim x dim_m x 8 bytes (1.6 MB at diii:n=6 and 7.8 MB at
    ci:n=8, at 100 samples), held through the pencil checks alone, beside
    the budgeted intermediates of each bracket call."""
    if isinstance(case, str):
        case = hermsym.parse_case(case)
    if n_samples < 1:
        raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    hermsym.philox_key(seed)
    t0 = time.monotonic()
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise UsageError(f"unknown tolerance names: {sorted(unknown)}")
        # zero stays valid: the strictest tolerance, passed only by exact zeros
        bad = sorted(n for n, v in tolerances.items() if not 0 <= v < np.inf)
        if bad:
            raise UsageError(f"tolerances must be finite and >= 0: {bad}")
        tols.update(tolerances)
    cal = calibrate()

    g, m = hermsym.batch_points(case, seed, 0, n_samples)
    chain = spectrum.chain_batch(case, m)
    labels, data, chain_sorted = spectrum.batch_free_values(case, chain)
    margins = spectrum.batch_margins(case, chain)
    target = min(50, n_samples)
    reg_idx, past, skipped = _gap_regular_points(
        case, seed, chain, target, 4 * n_samples)

    res = {**_orbit_checks(case, g, m), **_identity_coset(case),
           **_coset_invariance(case, seed, g, m),
           "interlacing": margins["interlacing"].max(initial=0.0),
           "polytope": max(v.max(initial=0.0) for v in margins.values()),
           "vertex_polytope": vertex_probe(case)}
    pair = poisson.build_pair(case, g, m=m)
    res.update(_pencil_checks(case, seed, pair, chain_sorted))
    # the regular rows are copies: the pair of every sample goes before
    # the fd checks, whose intermediates would otherwise stack on it
    reg = pair[reg_idx]
    del pair
    if past:
        reg = poisson.BracketPair.join(
            [reg, poisson.build_pair(case, past[0], m=past[1])])
    res.update(_regular_point_checks(case, reg, target))
    if case.tag == "bdi":
        res.update(_spin_checks(case, m, chain, seed))
    skips = {"involution_kks": skipped, "involution_bruhat": skipped}
    checks = [CheckResult(name, float(res[name]), float(tol),
                          bool(res[name] <= tol), int(skips.get(name, 0)))
              for name, tol in tols.items() if name in res]
    return VerificationReport(
        case=case.descriptor(), name=case.name, params=case.params,
        seed=int(seed), samples=int(n_samples),
        calibration=dict(zip(("s_K", "s_0"), cal.signs)), checks=checks,
        ranges={lbl: {"min": float(col.min()), "max": float(col.max())}
                for lbl, col in zip(labels, data.T)},
        elapsed_s=round(time.monotonic() - t0, 3))


# ---------------------------------------------------------------------------
# the DIII normalization finding
# ---------------------------------------------------------------------------

def measure_diii_normalization(n=3, samples=10000, seed=424242):
    """Empirical range of the pencil (not chain) eigenvalues on SO(2n)/U(n).

    Decides between the two candidate eigenvalue ranges [0,2] and [-1,3]
    without assuming either: the candidates only differ outside [0,2].
    Each draw of RANGE_DRAW samples goes through the pencil as one pair.
    """
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    case = hermsym.build_case("diii", n=n)
    calibrate()
    lo, hi = np.inf, -np.inf
    for start in range(0, samples, RANGE_DRAW):
        g, m = hermsym.batch_points(case, seed, start,
                                    min(RANGE_DRAW, samples - start))
        lam = poisson.pencil_spectrum(poisson.build_pair(case, g, m=m))
        lo, hi = min(lo, lam.min()), max(hi, lam.max())
    if lo >= -RANGE_TOL and hi <= 2 + RANGE_TOL:
        matches = "[0,2]"
    elif lo >= -1 - RANGE_TOL and hi <= 3 + RANGE_TOL:
        matches = "[-1,3]"
    else:
        matches = "neither"
    return {"case": case.descriptor(), "samples": int(samples),
            "min": float(lo), "max": float(hi), "matches": matches,
            "candidates": ["[0,2]", "[-1,3]"]}
