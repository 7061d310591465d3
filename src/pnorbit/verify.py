"""Calibration and the per-case verification suite.

`calibrate` fixes the two bracket signs by a discrete search: s_K against
the hamiltonian convention (the fundamental flow of X is minus the
PK-hamiltonian flow of F_X, measured by finite differences) and s_0
against the closed-form Nijenhuis formula.  Exactly one of the four sign
pairs may pass; anything else aborts.

`run_suite` then certifies every checkable identity at a desk-scale
sample size and emits a structured report.
"""

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hermsym, poisson, spectrum, spinrep
from .errors import CalibrationError, UsageError

DEFAULT_TOLERANCES = {
    "orbit_constraints": 1e-11,
    "spectrum_preserved": 1e-10,
    "identity_coset_zero": 1e-10,
    "coset_invariance": 1e-9,
    "connection_master": 1e-8,
    "connection_blocks": 1e-10,
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


@dataclass
class Calibration:
    s_k: int
    s_0: int
    residuals: dict       # {(s_k, s_0): residual}

    @property
    def signs(self):
        return (self.s_k, self.s_0)


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
            "checks": [{"name": c.name, "max_residual": c.max_residual,
                        "tolerance": c.tolerance, "pass": c.passed,
                        "skipped": c.skipped} for c in self.checks],
            "ranges": self.ranges,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
        }
        return json.dumps(payload, indent=2)


def _master_residual(pair, x):
    """The tangent vector v = [x, m] (scaled to at most unit coefficient
    norm) and max |N_pencil v - N_formula v|, over the rows of a stack."""
    case, m = pair.case, pair.point.m
    v = x @ m - m @ x
    norm = np.linalg.norm(case.alg.real_coefficients(v), axis=-1)
    v /= np.maximum(1.0, norm)[..., None, None]
    n_pencil = poisson.nijenhuis_apply(pair, v, check=False)
    return v, np.abs(n_pencil - poisson.nijenhuis_formula(case, m, v)).max()


def _calibration_residual(case, signs, points):
    """Worst of (hamiltonian-convention fd gap, formula-vs-pencil gap)."""
    s_k = signs[0]
    worst = 0.0
    for g in points:
        pair = poisson.build_pair(case, g, signs)
        k = pair.k_raw
        scale = max(1.0, np.abs(k).max())
        # fd flow derivatives of all coordinates along all flows
        dmat = poisson.directional_derivatives(
            case, g, lambda gs, ms: case.alg.real_coefficients(ms))
        worst = max(worst, np.abs(dmat - (-s_k * k)).max() / scale)
        rng = np.random.default_rng(17)
        for _ in range(3):
            x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim))
            worst = max(worst, _master_residual(pair, x)[1])
    return worst


@lru_cache(maxsize=None)
def calibrate():
    """Discrete search over the 4 sign pairs on Gr(1,2); must be unique."""
    case = hermsym.build_case("aiii", k=1, n=2)
    g_batch, _ = hermsym.batch_points(case, CALIBRATION_SEED, 0, CALIBRATION_POINTS)
    residuals = {}
    for s_k in (1, -1):
        for s_0 in (1, -1):
            residuals[(s_k, s_0)] = _calibration_residual(case, (s_k, s_0), g_batch)
    passing = [p for p, r in residuals.items() if r <= CALIBRATION_TOL]
    if len(passing) != 1:
        raise CalibrationError(
            f"calibration must single out one sign pair, got {passing} "
            f"from residuals {residuals}")
    return Calibration(passing[0][0], passing[0][1], residuals)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _check(checks, tols, name, residual, skipped=0):
    tol = tols[name]
    checks.append(CheckResult(name, float(residual), float(tol),
                              bool(residual <= tol), int(skipped)))


def _gap_regular_points(case, seed, g_batch, chain, n_needed, max_index):
    """Deterministic scan, in sample-index order, for gap-regular points.

    The drawn batch (g_batch and its chain data) is the first chunk; later
    chunks draw only as many samples as are still missing.  Returns
    (group elements, skipped_count).
    """
    found, skipped, idx = [], 0, 0
    while True:
        for g, gap in zip(g_batch, spectrum.gap_regularity(case, chain)):
            if len(found) == n_needed:
                return found, skipped
            if gap > GAP_THRESHOLD:
                found.append(g)
            else:
                skipped += 1
            idx += 1
        if len(found) == n_needed or idx >= max_index:
            return found, skipped
        g_batch, ms = hermsym.batch_points(
            case, seed, idx, min(n_needed - len(found), max_index - idx))
        chain = spectrum.chain_batch(case, ms)


def _involution_residuals(pair, dvec):
    """Largest off-diagonal bracket of the free chain eigenvalues under
    each bracket, from dvec = poisson.chain_gradient(pair)."""
    res = {}
    for which, p in (("kks", pair.pk), ("bruhat", pair.p0)):
        br = poisson.gradient_bracket(pair, dvec.T, p)
        off = br - np.diag(np.diag(br))
        res[which] = np.abs(off).max()
    return res


def _spin_checks(case, checks, tols, m_batch, chain, seed):
    rep = spinrep.SpinRepresentation(case.alg.size)
    amb = case.alg.size
    nl = rep.basis.n_letters
    eye = np.eye(rep.dim)
    res = max(np.abs(rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a]
                     - 2.0 * (a == b) * eye).max()
              for a in range(amb) for b in range(amb))
    _check(checks, tols, "spin_clifford", res)

    rng = np.random.default_rng(seed ^ 0x51)
    d = case.alg.dim
    res = 0.0
    for _ in range(20):
        x = case.alg.from_coefficients(rng.standard_normal(d)).real
        y = case.alg.from_coefficients(rng.standard_normal(d)).real
        lhs = rep(x @ y - y @ x)
        rhs = rep(x) @ rep(y) - rep(y) @ rep(x)
        res = max(res, np.abs(lhs - rhs).max())
    _check(checks, tols, "spin_homomorphism", res)

    s_rho = rep(case.rho.real)
    target = 1j * (rep.gamma_bar_gamma(nl) - 0.5 * eye)
    _check(checks, tols, "spin_last_rot", np.abs(s_rho - target).max())

    thetas = rng.standard_normal(nl)
    h = np.zeros((amb, amb))
    start = amb % 2
    for j in range(nl):
        r0 = start + 2 * j
        h[r0, r0 + 1] = thetas[j]
        h[r0 + 1, r0] = -thetas[j]
    got = np.sort(np.linalg.eigvalsh(-1j * rep(h)))
    want = np.sort([0.5 * sum((1 if b else -1) * t for b, t in zip(bits, thetas))
                    for bits in np.ndindex(*([2] * nl))])
    _check(checks, tols, "spin_weights", np.abs(got - want).max())

    res = 0.0
    for _ in range(20):
        x = case.alg.from_coefficients(rng.standard_normal(d))
        cp = case.alg.c_plus(x)
        s = rep(cp.real) + 1j * rep(cp.imag)     # complex-linear extension
        res = max(res, np.abs(np.tril(s, -1)).max())
    _check(checks, tols, "spin_triangular", res)

    res = 0.0
    for m, a, b in zip(m_batch[:20], chain["a"], chain["b"]):
        s_m = rep(m.real)
        ssum = np.cumsum(b)
        for k in range(1, len(b) + 1):
            size = 2 ** (nl - k)
            a_k = a[k - 1] if k <= len(a) else 0.0
            if size == 1:
                want = np.array([ssum[k - 1] / 2])
            else:
                half = size // 2
                want = np.sort([(a_k + ssum[k - 1]) / 2] * half
                               + [(-a_k + ssum[k - 1]) / 2] * half)
            got = np.sort(np.linalg.eigvalsh(-1j * s_m[:size, :size]))
            res = max(res, np.abs(got - want).max())
    _check(checks, tols, "spin_minor", res)


def vertex_probe(case):
    """Chain spectrum at the torus-fixed points: every free eigenvalue must
    sit on a polytope vertex value (0 or 2), membership included."""
    gs = np.stack(hermsym.torus_fixed_points(case))
    hermsym.check_group_element(case, gs, tol=1e-12)
    # the fixed points, then the identity coset (the all-zeros vertex)
    ms = np.concatenate([gs @ case.rho @ np.conj(np.swapaxes(gs, 1, 2)),
                         case.rho[None]])
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
    """Run every check for one case; returns a VerificationReport."""
    if isinstance(case, str):
        case = hermsym.parse_case(case)
    if n_samples < 1:
        raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
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
    signs = calibrate().signs
    checks = []

    g_batch, m_batch = hermsym.batch_points(case, seed, 0, n_samples)

    _check(checks, tols, "orbit_constraints", hermsym.group_residual(case, g_batch))

    rho_spec = np.linalg.eigvalsh(-1j * case.rho)
    spec_res = np.abs(np.linalg.eigvalsh(-1j * m_batch) - rho_spec).max()
    _check(checks, tols, "spectrum_preserved", spec_res)

    # identity coset: P0 = 0, chain eigenvalues 0, pencil eigenvalues 0
    pair0 = poisson.build_pair(case, np.eye(case.alg.size, dtype=complex), signs)
    res = np.abs(pair0.p0).max()
    cs0 = spectrum.chain_spectrum(case, case.rho, validate=False)
    res = max(res, np.abs(cs0.free_values()).max())
    res = max(res, np.abs(poisson.pencil_eigenvalues(pair0)[0]).max())
    _check(checks, tols, "identity_coset_zero", res)

    # coset invariance of the Bruhat matrix and the moment map
    res = 0.0
    for i in range(min(5, n_samples)):
        g = g_batch[i]
        p0 = poisson.bruhat_matrix(case, g, signs[1])
        scale = max(1.0, np.abs(p0).max())
        for j in range(4):
            h = hermsym.stabilizer_element(
                case, hermsym.sample_rng(seed ^ 0xC05E7, 4 * i + j))
            gh = g @ h
            res = max(res, np.abs(m_batch[i] - gh @ case.rho @ gh.conj().T).max())
            res = max(res, np.abs(p0 - poisson.bruhat_matrix(case, gh, signs[1])).max()
                      / scale)
    _check(checks, tols, "coset_invariance", res)

    # per-sample pencil machinery
    res_master, res_blocks = 0.0, 0.0
    res_pair, res_imag = 0.0, 0.0
    blocks_skipped = 0
    dir_idx = [(j * case.alg.dim) // 5 for j in range(5)]
    chain = spectrum.chain_batch(case, m_batch)
    labels, data, chain_sorted = spectrum.batch_free_values(case, chain)
    ranges = {lbl: {"min": float(col.min()), "max": float(col.max())}
              for lbl, col in zip(labels, data.T)}
    margins = spectrum.batch_margins(case, chain)
    pencil = np.empty_like(chain_sorted)

    step = poisson.stack_chunk(case)
    for i in range(0, n_samples, step):
        g = g_batch[i:i + step]
        pair = poisson.build_pair(case, g, signs)
        for a in dir_idx:
            v, res = _master_residual(pair, case.alg.basis[a])
            res_master = max(res_master, res)
            rb, has_blocks = poisson.connection_check(case, g, v)
            if has_blocks:
                res_blocks = max(res_blocks, rb)
            else:
                blocks_skipped += len(g)
        ev, im = poisson.pencil_eigenvalues(pair)
        res_imag = max(res_imag, im.max())
        res_pair = max(res_pair, np.abs(ev[:, 0::2] - ev[:, 1::2]).max())
        pencil[i:i + step] = (ev[:, 0::2] + ev[:, 1::2]) / 2

    _check(checks, tols, "connection_master", res_master)
    _check(checks, tols, "connection_blocks", res_blocks, skipped=blocks_skipped)
    _check(checks, tols, "pencil_chain_match",
           np.abs(pencil - chain_sorted).max(initial=0.0))
    _check(checks, tols, "doubling", res_pair)
    _check(checks, tols, "pencil_reality", res_imag)
    _check(checks, tols, "interlacing", margins["interlacing"].max(initial=0.0))
    _check(checks, tols, "polytope",
           max(v.max(initial=0.0) for v in margins.values()))

    # at gap-regular points, one pair each: involution under both brackets,
    # and at the first three the Lenard recursion and N^* d(lambda)
    target = min(50, n_samples)
    reg_gs, skipped = _gap_regular_points(case, seed, g_batch, chain, target,
                                          4 * n_samples)
    res_kks, res_bruhat = 0.0, 0.0
    res_len, res_tr, res_nstar = 0.0, 0.0, 0.0
    for j, g in enumerate(reg_gs):
        pair = poisson.build_pair(case, g, signs)
        dvec = poisson.chain_gradient(pair)
        r = _involution_residuals(pair, dvec)
        res_kks = max(res_kks, r["kks"])
        res_bruhat = max(res_bruhat, r["bruhat"])
        if j < 3:
            out = poisson.lenard_check(pair, case.n_eig)
            res_len = max(res_len, out["max"])
            res_tr = max(res_tr, out["trace_gap"])
            res_nstar = max(res_nstar, poisson.nstar_eigen_residual(pair, dvec))
    if len(reg_gs) < target:        # not enough gap-regular points found
        res_kks = res_bruhat = np.inf
    if not reg_gs:            # nothing regular found: cannot certify
        res_len = res_tr = res_nstar = np.inf
    _check(checks, tols, "involution_kks", res_kks, skipped=skipped)
    _check(checks, tols, "involution_bruhat", res_bruhat, skipped=skipped)

    # Jacobi identity of the pencil at t = 0 and t = 1, on one pair
    rng = np.random.default_rng(seed ^ 0x1ACB)
    triples = [tuple(rng.choice(case.alg.dim, size=3, replace=False))
               for _ in range(20)]
    pair = poisson.build_pair(case, g_batch[0], signs)
    for t, name in ((0.0, "jacobi_t0"), (1.0, "jacobi_t1")):
        _check(checks, tols, name, poisson.jacobi_residual(pair, t, triples))

    _check(checks, tols, "lenard", res_len)
    _check(checks, tols, "trace_identity", res_tr)
    _check(checks, tols, "nstar_dlambda", res_nstar)

    _check(checks, tols, "vertex_polytope", vertex_probe(case))

    if case.tag == "bdi":
        _spin_checks(case, checks, tols, m_batch, chain, seed)

    report = VerificationReport(
        case=case.descriptor(), name=case.name, params=case.params,
        seed=int(seed), samples=int(n_samples),
        calibration={"s_K": signs[0], "s_0": signs[1]},
        checks=checks, ranges=ranges,
        elapsed_s=round(time.monotonic() - t0, 3))
    return report


# ---------------------------------------------------------------------------
# the DIII normalization finding
# ---------------------------------------------------------------------------

def measure_diii_normalization(n=3, samples=10000, seed=424242):
    """Empirical range of the pencil (not chain) eigenvalues on SO(2n)/U(n).

    Decides between the two candidate eigenvalue ranges [0,2] and [-1,3]
    without assuming either: the candidates only differ outside [0,2].
    Each draw, the multiple of poisson.stack_chunk(case) nearest 200 from
    below (at least one stack), goes through the pencil in stacks of
    stack_chunk points.
    """
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    case = hermsym.build_case("diii", n=n)
    signs = calibrate().signs
    lo, hi = np.inf, -np.inf
    step = poisson.stack_chunk(case)
    chunk = step * max(1, 200 // step)
    done = 0
    while done < samples:
        cnt = min(chunk, samples - done)
        g_batch, _ = hermsym.batch_points(case, seed, done, cnt)
        for i in range(0, cnt, step):
            pair = poisson.build_pair(case, g_batch[i:i + step], signs)
            lam = poisson.pencil_spectrum(pair)
            lo = min(lo, lam.min())
            hi = max(hi, lam.max())
        done += cnt
    if lo >= -RANGE_TOL and hi <= 2 + RANGE_TOL:
        matches = "[0,2]"
    elif lo >= -1 - RANGE_TOL and hi <= 3 + RANGE_TOL:
        matches = "[-1,3]"
    else:
        matches = "neither"
    return {"case": case.descriptor(), "samples": int(samples),
            "min": float(lo), "max": float(hi), "matches": matches,
            "candidates": ["[0,2]", "[-1,3]"]}
