"""Calibration, suite reports, vertex probe, normalization measurement."""

import json

import numpy as np
import pytest

from pnorbit import (build_case, build_pair, calibrate, hermsym,
                     measure_diii_normalization, pencil_spectrum, poisson,
                     run_suite, spectrum, spinrep, verify, vertex_probe)
from pnorbit.errors import CalibrationError, UsageError
from pnorbit.hermsym import batch_points, parse_case, random_point
from pnorbit.verify import (CALIBRATION_POINTS, CALIBRATION_SEED,
                            DEFAULT_TOLERANCES, _calibration_residuals,
                            _spin_checks)

from helpers import (brackets_by_adjoint, fault_in_j, fault_in_nr,
                     nijenhuis_restricted_inverse, record_calls)


def test_calibration_unique_pair():
    cal = calibrate()
    assert cal.signs == (1, -1)
    passing = [p for p, r in cal.residuals.items() if r <= 1e-8]
    assert passing == [(1, -1)]
    assert all(r > 1e-2 for p, r in cal.residuals.items() if p != (1, -1))


def candidate_residual(case, signs, points):
    """One candidate's calibration residual by its own arithmetic, one
    point at a time, with K = kks_raw(m), PK = s_K K and P0 = -s_0 K D K.
    The coordinates' tangent-frame flow derivatives w = T^T dvec are held
    to T^T (-s_K K), as the fundamental flows move F_b by -s_K K[a, b].
    On the pair's tangent frame T, T^T PK T = s_K K_T and
    T^T P0 T = -s_0 N_r K_T, so the candidate's N = P0 PK^+ is
    T (-s_0 s_K N_r) T^T (K_T^-1 = -K_T)."""
    s_k, s_0 = signs
    alg = case.alg
    worst = 0.0
    for g in points:
        pair = build_pair(case, g)
        tan, n_r = pair.tangent, -s_0 * s_k * pair.nr
        k = poisson.kks_raw(case, pair.point.m)
        scale = max(1.0, np.abs(k).max())
        w = poisson.directional_derivatives(
            case, g, lambda flow: alg.real_coefficients(flow.m))
        worst = max(worst, np.abs(w - tan.T @ (-s_k * k)).max() / scale)
        rng = np.random.default_rng(17)
        for _ in range(3):
            x = alg.from_coefficients(rng.standard_normal(alg.dim))
            m = pair.point.m
            v = x @ m - m @ x
            v /= max(1.0, np.linalg.norm(v))
            t = alg.real_coefficients(v)[..., None]
            n_pencil = alg.from_coefficients((tan @ (n_r @ (tan.T @ t)))[..., 0])
            n_formula = poisson.nijenhuis_formula(case, m, v)
            worst = max(worst, np.abs(n_pencil - n_formula).max())
    return worst


def test_calibration_matches_per_candidate_arithmetic():
    # the one pass reads every candidate off the pair at the convention;
    # each candidate's own pair gives the same residual, bit for bit
    case = build_case("aiii", k=1, n=2)
    g_batch, _ = batch_points(case, CALIBRATION_SEED, 0, CALIBRATION_POINTS)
    residuals = calibrate().residuals
    assert list(residuals) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for signs, got in residuals.items():
        assert got == candidate_residual(case, signs, g_batch), signs


def test_calibration_rejects_an_uncertified_convention(monkeypatch):
    # the passing pair must be the one the bracket layer is written at
    calibrate.cache_clear()
    try:
        monkeypatch.setattr(poisson, "CALIBRATED_SIGNS", (1, 1))
        with pytest.raises(CalibrationError, match="single out"):
            calibrate()
    finally:
        calibrate.cache_clear()


def test_calibrated_pair_works_on_sp1():
    case = build_case("ci", n=1)
    g_batch, _ = batch_points(case, 4, 0, 5)
    assert _calibration_residuals(case, g_batch)[(1, -1)] <= 1e-8


def test_flipping_s0_negates_pencil_spectrum(gr24):
    # P0 -> -P0 negates N = P0 PK^-1: its spectrum by the inverse route,
    # with PK and P0 from the dim x dim A
    p = random_point(gr24, 2)
    pair = build_pair(gr24, p.g)
    lam = pencil_spectrum(pair)
    pk, p0, _ = brackets_by_adjoint(gr24, p.g)
    ev = np.sort(np.linalg.eigvals(
        nijenhuis_restricted_inverse(pair.tangent, pk, -p0)).real)
    lam_flipped = (ev[0::2] + ev[1::2]) / 2
    assert np.abs(np.sort(-lam) - lam_flipped).max() <= 1e-12


def test_run_suite_passes_and_schema(gr12):
    report = run_suite(gr12, n_samples=15, seed=3)
    assert report.passed
    payload = json.loads(report.to_json())
    assert set(payload) == {"case", "name", "params", "seed", "samples",
                            "calibration", "checks", "ranges", "passed",
                            "elapsed_s"}
    assert payload["calibration"] == {"s_K": 1, "s_0": -1}
    names = [c["name"] for c in payload["checks"]]
    for required in ("orbit_constraints", "coset_invariance",
                     "connection_master", "pencil_chain_match", "doubling",
                     "interlacing", "polytope", "involution_kks",
                     "involution_bruhat", "jacobi_t0", "jacobi_t1", "lenard",
                     "identity_coset_zero", "vertex_polytope"):
        assert names.count(required) == 1
    for c in payload["checks"]:
        assert c["pass"] == (c["max_residual"] <= c["tolerance"])
    assert "l1_1" in payload["ranges"]


def test_run_suite_takes_one_pair_per_stack(monkeypatch):
    # the sample loop builds the only pair of each sample: at aiii:k=2,n=4
    # (64 points per stack) one pair at the identity and 2 sample stacks.
    # The 50 gap-regular points, the Lenard/N^* d(lambda) rows and the
    # Jacobi row are rows of those; one chain flow per involution stack
    # (N^* d(lambda) reuses it), one Lenard flow and one Jacobi flow
    calibrate()
    calls = record_calls(monkeypatch, poisson, "build_pair",
                         "directional_derivatives")
    assert run_suite("aiii:k=2,n=4", 100).passed
    counts = {name: len(args) for name, args in calls.items()}
    assert counts["build_pair"] <= 3, counts
    assert counts["directional_derivatives"] <= 3, counts


@pytest.mark.parametrize("descriptor, n_samples, threshold", [
    ("ci:n=3", 100, None), ("diii:n=6", 20, None),
    ("aiii:k=2,n=4", 60, 0.6)])          # the scan draws past the batch
def test_run_suite_builds_each_row_once(descriptor, n_samples, threshold,
                                        monkeypatch):
    # every g row that reaches build_pair in one suite is a distinct point:
    # the identity coset, the samples and the regular points drawn past
    # the batch, each once, in one pair each
    calibrate()
    if threshold is not None:
        monkeypatch.setattr(verify, "GAP_THRESHOLD", threshold)
    calls = record_calls(monkeypatch, poisson, "build_pair")
    run_suite(descriptor, n_samples, seed=2024)
    rows = [row.tobytes() for case, g in calls["build_pair"]
            for row in g.reshape((-1,) + case.rho.shape)]
    assert len(rows) == len(set(rows)) > n_samples, (len(rows), len(set(rows)))
    assert len(calls["build_pair"]) == (2 if threshold is None else 3)


def test_run_suite_forms_each_pairs_nr_once(monkeypatch):
    # a pair caches N_r: the pencil, N, the brackets and the Lenard
    # contraction of one pair share one _restricted call on its T^T J T
    calibrate()
    tangents, seen = [], []
    build, restricted = poisson.build_pair, poisson._restricted

    def built(*args, **kwargs):
        pair = build(*args, **kwargs)
        tangents.append(pair.tangent)
        return pair

    def recorded(case, tjt):
        seen.append(tjt.tobytes())
        return restricted(case, tjt)

    monkeypatch.setattr(poisson, "build_pair", built)
    monkeypatch.setattr(poisson, "_restricted", recorded)
    case = parse_case("ci:n=3")
    assert run_suite(case, 100, seed=2024).passed
    jmat = case.alg.jmat
    counts = [seen.count((np.swapaxes(t, -1, -2) @ (jmat @ t)).tobytes())
              for t in tangents]
    assert tangents and max(counts) == 1, counts


def test_gap_regular_scan_draws_past_the_first_batch(gr24, monkeypatch):
    # at a gap threshold of 0.6 about half the samples of aiii:k=2,n=4 are
    # irregular, so 60 samples hold fewer than the 50 points the
    # involution checks take and the scan draws on, up to index 240
    seed, n_samples, threshold = 2024, 60, 0.6
    gs, ms = batch_points(gr24, seed, 0, 4 * n_samples)
    gaps = spectrum.gap_regularity(gr24, spectrum.chain_batch(gr24, ms))
    regular, skipped = [], 0
    for i, gap in enumerate(gaps):           # the per-index oracle
        if len(regular) == 50:
            break
        if gap > threshold:
            regular.append(i)
        else:
            skipped += 1
    assert len(regular) == 50 and regular[-1] >= n_samples
    seen = []
    involution = verify._involution_residuals

    def recorded(pair, dvec):
        seen.extend(pair.point.g.reshape((-1,) + gr24.rho.shape))
        return involution(pair, dvec)

    monkeypatch.setattr(verify, "GAP_THRESHOLD", threshold)
    monkeypatch.setattr(verify, "_involution_residuals", recorded)
    report = run_suite(gr24, n_samples, seed=seed)
    for c in report.checks:
        if c.name.startswith("involution"):
            assert c.skipped == skipped, c.name
    assert np.array_equal(np.stack(seen), gs[regular])


FD_SAMPLE_CHECKS = ("involution_kks", "involution_bruhat", "lenard",
                    "nstar_dlambda")


def regular_indices(case, seed, count, threshold):
    """Indices of the gap-regular points among the first count samples."""
    _, ms = batch_points(case, seed, 0, count)
    gaps = spectrum.gap_regularity(case, spectrum.chain_batch(case, ms))
    return np.flatnonzero(gaps > threshold)


def test_no_gap_regular_point_fails_the_fd_sample_checks(gr24, monkeypatch):
    # no sample clears a gap threshold of 10: the scan reads all 4 n
    # samples, and the four checks that need a gap-regular point fail
    monkeypatch.setattr(verify, "GAP_THRESHOLD", 10.0)
    report = run_suite(gr24, 3, seed=2024)
    assert not len(regular_indices(gr24, 2024, 12, 10.0))
    failed = {c.name: c for c in report.checks if not c.passed}
    assert set(failed) == set(FD_SAMPLE_CHECKS), failed
    assert all(c.max_residual == np.inf for c in failed.values())
    for name in ("involution_kks", "involution_bruhat"):
        assert failed[name].skipped == 12


def test_too_few_gap_regular_points_fail_only_the_involutions(gr24,
                                                              monkeypatch):
    # at a threshold of 0.85 the first 40 samples hold 4 regular points,
    # one in the batch of 10 and three drawn past it: fewer than the 10
    # the involution checks need, enough for Lenard and N^* d(lambda)
    regular = regular_indices(gr24, 2024, 40, 0.85)
    assert 3 <= len(regular) < 10 and regular[0] < 10 <= regular[-1]
    # the Lenard and N^* d(lambda) residuals of the first three, by their own
    g, m = batch_points(gr24, 2024, 0, 40)
    first = build_pair(gr24, g[regular[:3]], m=m[regular[:3]])
    want = {"lenard": poisson.lenard_check(first, gr24.n_eig)["max"],
            "nstar_dlambda": poisson.nstar_eigen_residual(
                first, poisson.chain_gradient(first))}
    monkeypatch.setattr(verify, "GAP_THRESHOLD", 0.85)
    calls = record_calls(monkeypatch, poisson, "chain_gradient")
    calls.update(record_calls(monkeypatch, verify, "_involution_residuals"))
    report = run_suite(gr24, 10, seed=2024)
    failed = {c.name: c for c in report.checks if not c.passed}
    assert set(failed) == {"involution_kks", "involution_bruhat"}, failed
    for c in failed.values():
        assert c.max_residual == np.inf and c.skipped == 40 - len(regular)
    # the discarded involution stacks are not run: one chain flow, on the
    # three points that N^* d(lambda) reads
    assert not calls["_involution_residuals"]
    assert [len(pair.tangent) for pair, in calls["chain_gradient"]] == [3]
    got = {c.name: c.max_residual for c in report.checks if c.name in want}
    assert got == want


def test_run_suite_includes_spin_checks_for_bdi(bdi5):
    report = run_suite(bdi5, n_samples=10, seed=3)
    names = [c.name for c in report.checks]
    for required in ("spin_clifford", "spin_homomorphism", "spin_last_rot",
                     "spin_weights", "spin_triangular", "spin_minor"):
        assert required in names
    assert report.passed


def test_no_check_passes_without_running(gr24, sp2, so6u3, bdi5):
    # every check but the involutions, which take only gap-regular points,
    # runs on every sample of every family: none reports a skip
    for case in (gr24, sp2, so6u3, bdi5):
        report = run_suite(case, 20, seed=2024)
        skipped = {c.name: c.skipped for c in report.checks if c.skipped
                   and c.name not in ("involution_kks", "involution_bruhat")}
        assert skipped == {}, case.name


def test_report_lists_every_check_in_tolerance_order():
    # DEFAULT_TOLERANCES alone orders the report; every check group returns
    # all of its checks, and only bdi has the spin module
    spin = [n for n in DEFAULT_TOLERANCES if n.startswith("spin_")]
    assert len(spin) == 6
    for descriptor in ("bdi:m=5", "aiii:k=1,n=2", "ci:n=1", "diii:n=2"):
        names = [c.name for c in run_suite(descriptor, 5, seed=2024).checks]
        want = [n for n in DEFAULT_TOLERANCES
                if descriptor.startswith("bdi") or n not in spin]
        assert names == want, descriptor


def spin_check_passes(case, edit_chain=lambda chain: chain):
    """{name: passed} of the six spin checks at 20 points of case."""
    _, ms = batch_points(case, 3, 0, 20)
    res = _spin_checks(case, ms, edit_chain(spectrum.chain_batch(case, ms)), 3)
    return {name: r <= DEFAULT_TOLERANCES[name] for name, r in res.items()}


@pytest.mark.parametrize("m", [5, 6])
def test_spin_clifford_fails_on_a_scaled_gamma(m, monkeypatch):
    case = build_case("bdi", m=m)
    assert all(spin_check_passes(case).values())
    exact = spinrep.gamma_matrices

    def scaled(n_letters, odd=False):
        gammas = exact(n_letters, odd)
        gammas[m // 2] *= 1 + 1e-6
        return gammas
    monkeypatch.setattr(spinrep, "gamma_matrices", scaled)
    assert not spin_check_passes(case)["spin_clifford"]


@pytest.mark.parametrize("m", [5, 6])
def test_spin_minor_fails_on_a_negated_b(m):
    case = build_case("bdi", m=m)
    passes = spin_check_passes(case, lambda chain: {**chain, "b": -chain["b"]})
    assert not passes["spin_minor"]
    assert passes["spin_clifford"] and passes["spin_homomorphism"]


def test_run_suite_deterministic(sp2):
    r1 = run_suite(sp2, n_samples=8, seed=11)
    r2 = run_suite(sp2, n_samples=8, seed=11)
    j1 = json.loads(r1.to_json())
    j2 = json.loads(r2.to_json())
    j1.pop("elapsed_s")
    j2.pop("elapsed_s")
    assert j1 == j2


def test_run_suite_monotone_in_tolerance(so6u3):
    report = run_suite(so6u3, n_samples=8, seed=5)
    assert report.passed
    doubled = {name: 2 * tol for name, tol in DEFAULT_TOLERANCES.items()}
    report2 = run_suite(so6u3, n_samples=8, seed=5, tolerances=doubled)
    assert report2.passed


@pytest.mark.parametrize("n_samples", [0, -5])
def test_run_suite_rejects_empty_sample(gr12, n_samples):
    with pytest.raises(UsageError):
        run_suite(gr12, n_samples=n_samples)


def test_run_suite_rejects_unknown_tolerance(gr12):
    with pytest.raises(UsageError):
        run_suite(gr12, n_samples=5, seed=0, tolerances={"nope": 1.0})


def test_vertex_probe(all_cases):
    for case in all_cases:
        assert vertex_probe(case) <= 1e-10, case.name


def test_vertex_order_reversed_grassmannian():
    # the order-reversing fixed point pushes every free eigenvalue to 2
    from pnorbit import chain_spectrum
    case = build_case("aiii", k=1, n=2)
    rho_rev = np.diag([case.rho[1, 1], case.rho[0, 0]])
    cs = chain_spectrum(case, rho_rev)
    assert np.abs(cs.free_values() - 2.0).max() <= 1e-12


def test_diii_normalization_measurement():
    out = measure_diii_normalization(n=3, samples=150, seed=5)
    assert out["matches"] in ("[0,2]", "[-1,3]")
    lo, hi = eval(out["matches"])      # the literal "[a,b]" candidates
    assert out["min"] >= lo - 1e-6 and out["max"] <= hi + 1e-6


def test_diii_normalization_matches_pointwise_loop(monkeypatch):
    # 450 samples cross 200-sample draws
    monkeypatch.setattr(verify, "RANGE_DRAW", 200)
    case = build_case("diii", n=3)
    g_batch, _ = batch_points(case, 31, 0, 450)
    lams = [pencil_spectrum(build_pair(case, g)) for g in g_batch]
    out = measure_diii_normalization(n=3, samples=450, seed=31)
    assert abs(out["min"] - min(lam.min() for lam in lams)) <= 1e-13
    assert abs(out["max"] - max(lam.max() for lam in lams)) <= 1e-13


def test_diii_normalization_independent_of_draw_size(monkeypatch):
    # every sample's pencil is its own: one sample per draw and one point
    # per adjoint kernel chunk give the same min and max, bit for bit
    want = measure_diii_normalization(n=3, samples=400, seed=3)
    monkeypatch.setattr(verify, "RANGE_DRAW", 1)
    monkeypatch.setattr(poisson, "_budget_points", lambda case, rows: 1)
    got = measure_diii_normalization(n=3, samples=400, seed=3)
    assert (got["min"], got["max"]) == (want["min"], want["max"])


@pytest.mark.parametrize("descriptor, n_samples", [
    ("diii:n=4", 100), ("bdi:m=7", 100), ("diii:n=6", 20)])
def test_run_suite_independent_of_stack_size(descriptor, n_samples,
                                             monkeypatch):
    # every stacked call computes each point's rows on their own, and a
    # one-point stack stays on the GEMM route (LieAlgebra._gemm): one point
    # per adjoint kernel and bruhat_matrix chunk, and one tangent direction
    # per fd flow call, gives the same report, byte for byte (elapsed_s
    # aside)
    calibrate()

    def report():
        out = run_suite(descriptor, n_samples, seed=2024)
        out.elapsed_s = 0.0
        return out.to_json()

    want = report()
    monkeypatch.setattr(poisson, "_budget_points", lambda case, rows: 1)
    monkeypatch.setattr(poisson, "_flow_directions", lambda case, points: 1)
    assert report() == want


@pytest.mark.parametrize("samples", [0, -5])
def test_diii_normalization_rejects_empty_sample(samples):
    with pytest.raises(UsageError):
        measure_diii_normalization(n=3, samples=samples)


@pytest.mark.parametrize("descriptor", ["aiii:k=4,n=8", "ci:n=5", "diii:n=6",
                                        "diii:n=8", "bdi:m=11"])
def test_scale_tier_passes(descriptor):
    # beyond desk scale, at reduced samples: every check must still hold
    report = run_suite(descriptor, 10, seed=2024)
    failed = [(c.name, c.max_residual) for c in report.checks if not c.passed]
    assert not failed, failed


def test_run_suite_accepts_zero_tolerance(gr12):
    # zero is the strictest valid tolerance (NaN, negative and infinite
    # values exit 2, see test_cli): the check runs and fails.  The check is
    # one whose residual is round-off, not exactly 0 (doubling reads 0.0
    # on these points, where N_r = lambda 1 exactly)
    report = run_suite(gr12, n_samples=3, seed=0,
                       tolerances={"trace_identity": 0.0})
    assert [c.name for c in report.checks if not c.passed] == ["trace_identity"]


def failed_checks(report):
    return {c.name: c.max_residual / c.tolerance
            for c in report.checks if not c.passed}


@pytest.mark.parametrize("descriptor", ["diii:n=4", "bdi:m=7"])
def test_trace_identity_fails_on_a_scaled_nr(descriptor, monkeypatch):
    # N_r (1 + 1e-8) still has Tr N_r = 2 sum of its own de-doubled
    # eigenvalues, and moves them by less than pencil_chain_match sees;
    # the chain's eigenvalues do not move, so the trace identity fails.
    # Calibration runs first: a fault it caught would prove nothing here
    calibrate()
    monkeypatch.setattr(poisson, "_restricted",
                        fault_in_nr(lambda case, nr: nr * (1 + 1e-8)))
    failed = failed_checks(run_suite(descriptor, 100, seed=2024))
    assert list(failed) == ["trace_identity"], failed
    assert failed["trace_identity"] >= 100


# J halved on the highest compact root plane is no r-matrix: the pencil
# fails Jacobi and the Lenard recursion, and its spectrum leaves the
# chain's.  The compact roots of aiii:k=2,n=4 are simple, so flipped there
# J is the r-matrix of the neighbouring Weyl chamber, and only the checks
# that hold the pencil to the chain fail.
FD_FAULT = {"jacobi_t0", "jacobi_t1", "lenard", "nstar_dlambda",
            "pencil_chain_match", "trace_identity"}
CHAIN_FAULT = {"pencil_chain_match", "trace_identity", "nstar_dlambda"}


@pytest.mark.parametrize("descriptor,kind,fails", [
    ("aiii:k=2,n=4", "halve", FD_FAULT),
    ("ci:n=3", "halve", FD_FAULT | {"involution_bruhat", "pencil_reality"}),
    ("diii:n=4", "halve", FD_FAULT | {"involution_bruhat", "pencil_reality"}),
    ("bdi:m=7", "halve", FD_FAULT | {"involution_bruhat", "pencil_reality",
                                     "spin_triangular"}),
    ("aiii:k=2,n=4", "flip", CHAIN_FAULT),
])
def test_fd_checks_fail_on_a_planted_fault_in_j(descriptor, kind, fails):
    # the case is rebuilt with the fault (its certificates read J on the
    # tangent space only, and pass); each check the fault reaches fails by
    # at least 100x, and no other check fails
    calibrate()
    case = fault_in_j(parse_case(descriptor), kind)
    failed = failed_checks(run_suite(case, 40, seed=2024))
    assert set(failed) == fails, failed
    assert min(failed.values()) >= 100, failed


FAMILIES = ["aiii:k=2,n=4", "ci:n=3", "diii:n=4", "bdi:m=7"]


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_coset_invariance_fails_on_moves_off_the_stabilizer(descriptor,
                                                            monkeypatch):
    # generic group elements in place of the stabilizer moves leave the
    # coset: the moment map and P0 both move by O(1)
    case = parse_case(descriptor)
    g, m = batch_points(case, 2024, 0, 5)
    tol = DEFAULT_TOLERANCES["coset_invariance"]
    assert verify._coset_invariance(case, 2024, g, m)["coset_invariance"] <= tol
    monkeypatch.setattr(hermsym, "stabilizer_elements",
                        lambda case, seed, start, count:
                        batch_points(case, seed, start, count)[0])
    res = verify._coset_invariance(case, 2024, g, m)["coset_invariance"]
    assert res >= 100 * tol, res


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_coset_invariance_fails_on_a_transposed_adjoint(descriptor,
                                                        monkeypatch):
    # A^T = Ad_g in place of A = Ad_{g^-1} inside bruhat_matrix: P0 is no
    # longer constant on cosets, while the moment map does not move, so
    # only the P0 half of coset_invariance can see it (O(1) at seed 2024)
    case = parse_case(descriptor)
    g, m = batch_points(case, 2024, 0, 10)
    tol = DEFAULT_TOLERANCES["coset_invariance"]
    assert verify._coset_invariance(case, 2024, g, m)["coset_invariance"] <= tol
    adjoint = poisson._adjoint
    monkeypatch.setattr(poisson, "_adjoint", lambda case, g, side=None:
                        np.swapaxes(adjoint(case, g, side), -1, -2))
    res = verify._coset_invariance(case, 2024, g, m)["coset_invariance"]
    assert res >= 100 * tol, res


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_connection_master_fails_on_a_transposed_nr(descriptor, monkeypatch):
    # the pencil's N v read with N_r^T in place of N_r: N_r^T has N_r's
    # spectrum, so no pencil check sees it, and the closed form
    # N v = [-J(v), m] + v does not read N_r, so connection_master fails
    # alone.  Calibration runs first: a fault it caught would prove
    # nothing here
    calibrate()

    def transposed(pair, cols):
        tan = pair.tangent
        return tan @ (np.swapaxes(pair.nr, -1, -2)
                      @ (np.swapaxes(tan, -1, -2) @ cols))

    monkeypatch.setattr(poisson, "_nijenhuis_cols", transposed)
    failed = failed_checks(run_suite(descriptor, 40, seed=2024))
    assert list(failed) == ["connection_master"], failed
    assert failed["connection_master"] >= 100, failed


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_vertex_probe_fails_without_the_identity_vertex(descriptor,
                                                        monkeypatch):
    # the torus-fixed points with g rho g^-1 = rho are the ones on the
    # all-zeros vertex; with them dropped, no fixed point sits there, and
    # the probe reads 1
    case = parse_case(descriptor)
    fixed = hermsym.torus_fixed_points(case)
    moved = [p for p in fixed
             if np.abs(hermsym.conjugate_rho(case, p) - case.rho).max() > 1e-12]
    assert 0 < len(moved) < len(fixed), case.name
    monkeypatch.setattr(hermsym, "torus_fixed_points", lambda case: moved)
    tol = DEFAULT_TOLERANCES["vertex_polytope"]
    assert vertex_probe(case) >= 100 * tol, case.name


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_interlacing_and_polytope_fail_on_a_planted_violation(descriptor,
                                                             monkeypatch):
    # one sample of the suite's base chain batch moved past one interlacing
    # bound by 1e-7, 100x the 1e-9 tolerance of both checks: each reports
    # it (polytope takes every margin, interlacing included).  The planted
    # entry's own rounding is below 1e-15
    calibrate()
    case = parse_case(descriptor)
    _, base = batch_points(case, 2024, 0, 40)
    chain_batch = spectrum.chain_batch

    def planted(case, ms):
        batch = chain_batch(case, ms)
        if np.array_equal(ms, base):
            if batch["kind"] == "gt":
                rows = batch["rows"]
                rows[1][7, 0] = rows[0][7, 0] - 1e-7      # below its lower bound
            else:
                # |b_1| past the cone's first drop 1 - |a_1|
                batch["b"][7, 0] = 1 - abs(batch["a"][7, 0]) + 1e-7
        return batch

    monkeypatch.setattr(spectrum, "chain_batch", planted)
    failed = failed_checks(run_suite(case, 40, seed=2024))
    for name in ("interlacing", "polytope"):
        assert failed.get(name, 0) >= 100 * (1 - 1e-8), failed


@pytest.mark.parametrize("descriptor", ["diii:n=3", "diii:n=4", "diii:n=5",
                                        "diii:n=6"])
def test_chain_checks_fail_on_a_point_off_the_orbit(descriptor, monkeypatch):
    # the suite's base chain read at m + 1e-5 E, E real antisymmetric: still
    # in so(2n), but off the orbit.  The diii rows that the pairing fixes
    # are read from traces and a norm, or at n >= 5 the top row from row
    # 2's pinned entries, so on diii:n=4, 5 and 6 the pairing and the
    # pinned interlacing entries hold by construction and polytope reads 0;
    # the chain then disagrees with the pencil, which the unmoved m feeds
    calibrate()
    case = parse_case(descriptor)
    _, base = batch_points(case, 2024, 0, 40)
    a = np.random.default_rng(7).standard_normal(case.rho.shape)
    e = a - a.T
    chain_batch = spectrum.chain_batch

    def planted(case, ms):
        return chain_batch(case, ms + 1e-5 * e if np.array_equal(ms, base)
                           else ms)

    monkeypatch.setattr(spectrum, "chain_batch", planted)
    failed = failed_checks(run_suite(case, 40, seed=2024))
    for name in ("pencil_chain_match", "trace_identity"):
        assert failed.get(name, 0) >= 100, failed


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_identity_coset_zero_fails_on_a_chain_value_at_rho(descriptor,
                                                           monkeypatch):
    # the chain free values at the identity coset moved by 1e-6: N_r and
    # the pencil there stay 0, so only the chain half of
    # identity_coset_zero sees it, at 1e4x its tolerance
    calibrate()
    case = parse_case(descriptor)
    chain_free_vector = spectrum.chain_free_vector

    def planted(case, m):
        vals = chain_free_vector(case, m)
        if np.shape(m) == case.rho.shape and np.array_equal(m, case.rho):
            vals = vals + 1e-6
        return vals

    monkeypatch.setattr(spectrum, "chain_free_vector", planted)
    failed = failed_checks(run_suite(case, 40, seed=2024))
    assert list(failed) == ["identity_coset_zero"], failed
    assert failed["identity_coset_zero"] >= 100, failed


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_involution_checks_fail_on_a_chain_value_off_the_chain(descriptor,
                                                               monkeypatch):
    # the first free chain value moved by the coordinate Re m[0,-1] +
    # Im m[0,-1], which Poisson-commutes with the chain under neither
    # bracket and is no eigen-direction of N^*: both involutions and
    # nstar_dlambda fail, involution_kks by >= 1e4x its tolerance.  The
    # coordinate is 0 at rho, so identity_coset_zero still passes
    calibrate()
    case = parse_case(descriptor)
    chain_free_vector = spectrum.chain_free_vector

    def planted(case, m):
        vals = chain_free_vector(case, m)
        corner = np.asarray(m)[..., 0, -1]
        vals[..., 0] += corner.real + corner.imag
        return vals

    monkeypatch.setattr(spectrum, "chain_free_vector", planted)
    failed = failed_checks(run_suite(case, 40, seed=2024))
    assert set(failed) == {"involution_kks", "involution_bruhat",
                           "nstar_dlambda"}, failed
    assert failed["involution_kks"] >= 1e4, failed


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_tangent_vector_scale_is_the_coefficient_norm(descriptor):
    # _tangent_vectors scales v = [x, m] by its Frobenius norm, which is
    # the norm of its real coefficients in the basis orthonormal under
    # -Tr(AB): the suite's five directions at 50 points
    case = parse_case(descriptor)
    _, m = batch_points(case, 2024, 0, 50)
    x = case.alg.basis[[(j * case.alg.dim) // 5 for j in range(5)], None]
    v = x @ m - m @ x
    coef = np.linalg.norm(case.alg.real_coefficients(v), axis=-1)
    frob = np.linalg.norm(v, axis=(-2, -1))
    assert (np.abs(frob - coef) <= 1e-15 * coef).all(), case.name


@pytest.mark.parametrize("descriptor", ["aiii:k=1,n=2", "ci:n=1", "diii:n=2"])
def test_lenard_takes_a_step_at_one_eigenvalue(descriptor, monkeypatch):
    # at n_eig = 1 the recursion I_1 .. I_n_eig has no step; the suite
    # checks dI_2 = N^* dI_1 there, so lenard is read from one real step
    calibrate()
    lenard_check = poisson.lenard_check
    steps = []

    def recorded(pair, k_max):
        out = lenard_check(pair, k_max)
        steps.append(out["steps"])
        return out

    monkeypatch.setattr(poisson, "lenard_check", recorded)
    report = run_suite(descriptor, 40, seed=2024)
    assert report.passed
    assert len(steps) == 1 and len(steps[0]) >= 1, steps
    lenard = next(c for c in report.checks if c.name == "lenard")
    assert lenard.max_residual == max(steps[0])


@pytest.mark.parametrize("descriptor", FAMILIES)
def test_orbit_checks_fail_on_points_off_the_orbit(descriptor):
    # g (1 + 1e-8) leaves the group and m (1 + 1e-7) the orbit of rho:
    # each fault fails its own check by at least 100x and not the other
    case = parse_case(descriptor)
    g, m = batch_points(case, 2024, 0, 100)
    tols = {name: DEFAULT_TOLERANCES[name]
            for name in ("orbit_constraints", "spectrum_preserved")}
    clean = verify._orbit_checks(case, g, m)
    assert all(clean[name] <= tol for name, tol in tols.items()), clean
    for name, faulted in (("orbit_constraints", (g * (1 + 1e-8), m)),
                          ("spectrum_preserved", (g, m * (1 + 1e-7)))):
        res = verify._orbit_checks(case, *faulted)
        failed = {n: res[n] / tol for n, tol in tols.items() if res[n] > tol}
        assert list(failed) == [name] and failed[name] >= 100, failed


def test_a_complex_pencil_is_a_failed_check(monkeypatch):
    # N_r + 1e-6 K_T splits the doubled eigenvalues of diii into complex
    # pairs: the suite reports pencil_reality failed instead of raising
    calibrate()
    monkeypatch.setattr(poisson, "_restricted", fault_in_nr(
        lambda case, nr: nr + 1e-6 * case.k_t if case.tag == "diii" else nr))
    failed = failed_checks(run_suite("diii:n=4", 100, seed=2024))
    assert failed.get("pencil_reality", 0) >= 100, failed


def test_run_suite_reads_no_pencil_spectrum(monkeypatch):
    # the suite judges the pencil by its reported checks alone: the raising
    # readout pencil_spectrum is never called, the plain pencil_eigenvalues
    # is
    calls = record_calls(monkeypatch, poisson, "pencil_spectrum",
                         "pencil_eigenvalues")
    for descriptor in ("aiii:k=2,n=4", "diii:n=4", "bdi:m=7"):
        assert run_suite(descriptor, 20, seed=2024).passed
    counts = {name: len(args) for name, args in calls.items()}
    assert counts["pencil_spectrum"] == 0, counts
    assert counts["pencil_eigenvalues"] > 0, counts
