"""Calibration, suite reports, vertex probe, normalization measurement."""

import json

import numpy as np
import pytest

from pnorbit import (build_case, build_pair, calibrate,
                     measure_diii_normalization, pencil_spectrum, run_suite,
                     vertex_probe)
from pnorbit.errors import UsageError
from pnorbit.hermsym import batch_points, random_point
from pnorbit.verify import DEFAULT_TOLERANCES, _calibration_residual


def test_calibration_unique_pair():
    cal = calibrate()
    assert cal.signs == (1, -1)
    passing = [p for p, r in cal.residuals.items() if r <= 1e-8]
    assert passing == [(1, -1)]
    assert all(r > 1e-2 for p, r in cal.residuals.items() if p != (1, -1))


def test_calibrated_pair_works_on_sp1():
    case = build_case("ci", n=1)
    g_batch, _ = batch_points(case, 4, 0, 5)
    assert _calibration_residual(case, (1, -1), g_batch) <= 1e-8


def test_flipping_s0_negates_pencil_spectrum(gr24):
    p = random_point(gr24, 2)
    lam = pencil_spectrum(build_pair(gr24, p.g, (1, -1)))
    lam_flipped = pencil_spectrum(build_pair(gr24, p.g, (1, 1)))
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


def test_run_suite_includes_spin_checks_for_bdi(bdi5):
    report = run_suite(bdi5, n_samples=10, seed=3)
    names = [c.name for c in report.checks]
    for required in ("spin_clifford", "spin_homomorphism", "spin_last_rot",
                     "spin_weights", "spin_triangular", "spin_minor"):
        assert required in names
    assert report.passed


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


def test_diii_normalization_matches_pointwise_loop():
    # 450 samples cross the 200-sample draws and the stacked sub-chunks
    case = build_case("diii", n=3)
    g_batch, _ = batch_points(case, 31, 0, 450)
    lams = [pencil_spectrum(build_pair(case, g, (1, -1)))
            for g in g_batch]
    out = measure_diii_normalization(n=3, samples=450, seed=31)
    assert abs(out["min"] - min(lam.min() for lam in lams)) <= 1e-13
    assert abs(out["max"] - max(lam.max() for lam in lams)) <= 1e-13


@pytest.mark.parametrize("samples", [0, -5])
def test_diii_normalization_rejects_empty_sample(samples):
    with pytest.raises(UsageError):
        measure_diii_normalization(n=3, samples=samples)


@pytest.mark.parametrize("descriptor", ["aiii:k=4,n=8", "ci:n=5", "diii:n=6",
                                        "bdi:m=11"])
def test_scale_tier_passes(descriptor):
    # beyond desk scale, at reduced samples: every check must still hold
    report = run_suite(descriptor, 10, seed=2024)
    failed = [(c.name, c.max_residual) for c in report.checks if not c.passed]
    assert not failed, failed


def test_run_suite_accepts_zero_tolerance(gr12):
    # zero is the strictest valid tolerance (NaN, negative and infinite
    # values exit 2, see test_cli): the check runs and fails
    report = run_suite(gr12, n_samples=3, seed=0, tolerances={"doubling": 0.0})
    assert [c.name for c in report.checks if not c.passed] == ["doubling"]
