"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line for its criterion.  The heavy
fixtures run once per module: the full verification suite at 100 seeded
points per case, and the 1e5-sample polytope sweeps.
"""

import time

import numpy as np
import pytest

from pnorbit import (build_algebra, c_plus, calibrate,
                     measure_diii_normalization, parse_case, run_suite,
                     vertex_probe)
from pnorbit.cli import POLYTOPE_CHUNK
from pnorbit.hermsym import batch_points
from pnorbit.spectrum import batch_violations, chain_batch

CASES = [
    "aiii:k=1,n=2",   # Gr(1,2)
    "aiii:k=1,n=3",   # Gr(1,3)
    "aiii:k=2,n=4",   # Gr(2,4)
    "ci:n=1",         # Sp(1)/U(1)
    "ci:n=2",         # Sp(2)/U(2)
    "ci:n=3",         # Sp(3)/U(3)
    "diii:n=2",       # SO(4)/U(2)
    "diii:n=3",       # SO(6)/U(3)
    "diii:n=4",       # SO(8)/U(4)
    "bdi:m=5",        # SO(5)/SO(3)xSO(2)
    "bdi:m=6",        # SO(6)/SO(4)xSO(2)
    "bdi:m=7",        # SO(7)/SO(5)xSO(2)
]
SEED = 2024
SAMPLES = 100


@pytest.fixture(scope="module")
def reports():
    out = {}
    for desc in CASES:
        t0 = time.monotonic()
        rep = run_suite(desc, n_samples=SAMPLES, seed=SEED)
        out[desc] = (rep, time.monotonic() - t0)
    return out


def _criterion(no, label, ok, detail):
    line = f"criterion {no:>2} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def _residual(reports, name):
    worst, tol = -np.inf, None
    for rep, _ in reports.values():
        for c in rep.checks:
            if c.name == name:
                worst = max(worst, c.max_residual)
                tol = c.tolerance
    return worst, tol


def _all_pass(reports, name):
    return all(c.passed for rep, _ in reports.values()
               for c in rep.checks if c.name == name)


def test_criterion_1_pencil_chain_agreement(reports):
    worst, tol = _residual(reports, "pencil_chain_match")
    slowest = max(dt for _, dt in reports.values())
    ok = _all_pass(reports, "pencil_chain_match") and worst <= 1e-7 \
        and slowest < 60.0
    _criterion(1, "pencil vs chain, 12 cases x 100 points",
               ok, f"max |d| = {worst:.2e} (tol 1e-7), slowest case "
                   f"{slowest:.1f}s (< 60s)")


def test_criterion_2_doubling(reports):
    worst, _ = _residual(reports, "doubling")
    ok = _all_pass(reports, "doubling") and worst <= 1e-8
    _criterion(2, "pencil eigenvalue doubling", ok,
               f"max pairing gap = {worst:.2e} (tol 1e-8)")


def test_criterion_3_connection_master(reports):
    cal = calibrate()
    unique = [p for p, r in cal.residuals.items() if r <= 1e-8] == [cal.signs]
    worst, _ = _residual(reports, "connection_master")
    ok = unique and _all_pass(reports, "connection_master") and worst <= 1e-8
    _criterion(3, "connection/master equation after unique calibration", ok,
               f"signs {cal.signs}, max |Nv - ([-J(v),m]+v)| = {worst:.2e} "
               f"(tol 1e-8)")


def test_criterion_4_compatibility(reports):
    w0, _ = _residual(reports, "jacobi_t0")
    w1, _ = _residual(reports, "jacobi_t1")
    ok = (_all_pass(reports, "jacobi_t0") and _all_pass(reports, "jacobi_t1")
          and max(w0, w1) <= 1e-5)
    _criterion(4, "fd Jacobi of pi_t at t in {0,1}, 20 triples", ok,
               f"max residual = {max(w0, w1):.2e} (tol 1e-5)")


def test_criterion_5_involution(reports):
    wk, _ = _residual(reports, "involution_kks")
    wb, _ = _residual(reports, "involution_bruhat")
    ok = (_all_pass(reports, "involution_kks")
          and _all_pass(reports, "involution_bruhat")
          and max(wk, wb) <= 1e-5)
    _criterion(5, "involution of eigenvalues under both brackets, "
                  ">= 50 gap-regular points", ok,
               f"max |{{l_i, l_j}}| = {max(wk, wb):.2e} (tol 1e-5)")


def test_criterion_6_interlacing_polytopes():
    total = 100000
    chunk = POLYTOPE_CHUNK      # the CLI's chunk: same samples, smaller stacks
    violations = 0
    vertex_worst = 0.0
    for desc in CASES:
        case = parse_case(desc)
        done = 0
        while done < total:
            cnt = min(chunk, total - done)
            _, ms = batch_points(case, SEED, done, cnt)
            violations += batch_violations(case, chain_batch(case, ms),
                                           slack=1e-9)
            done += cnt
        vertex_worst = max(vertex_worst, vertex_probe(case))
    ok = violations == 0 and vertex_worst <= 1e-10
    _criterion(6, "interlacing/polytopes over 1e5 samples/case + vertices",
               ok, f"violations = {violations}, vertex deviation = "
                   f"{vertex_worst:.2e} (tol 1e-10)")


def test_criterion_7_convention_fidelity(reports):
    rng = np.random.default_rng(7)
    worst_cp = 0.0
    for n in (2, 3, 4):
        alg = build_algebra("A", n)
        x = alg.from_coefficients(rng.standard_normal(alg.dim))
        cp = c_plus(alg, x)
        expect = np.zeros((n, n), complex)
        for r in range(n):
            expect[r, r] = 1j * x[r, r]
            expect[r, r + 1:] = 2j * x[r, r + 1:]
        worst_cp = max(worst_cp, np.abs(cp - expect).max())
    worst_ad = 0.0
    for desc in CASES:
        case = parse_case(desc)
        for _ in range(4):
            x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim))
            ad = lambda y: case.rho @ y - y @ case.rho
            xp = -ad(ad(x))
            worst_ad = max(worst_ad, np.abs(case.alg.j_apply(xp) - ad(xp)).max())
    ok = worst_cp <= 1e-12 and worst_ad <= 1e-10
    _criterion(7, "C_+ triangular form (su) and J|h_perp = ad_rho", ok,
               f"C_+ entrywise = {worst_cp:.2e} (tol 1e-12), "
               f"ad_rho residual = {worst_ad:.2e} (tol 1e-10)")


def test_criterion_8_spin_representation(reports):
    names = ("spin_clifford", "spin_homomorphism", "spin_last_rot",
             "spin_weights", "spin_minor", "spin_triangular")
    bdi = {d: reports[d][0] for d in CASES if d.startswith("bdi")}
    detail, ok = [], True
    for name in names:
        worst, tol = -np.inf, None
        for rep in bdi.values():
            for c in rep.checks:
                if c.name == name:
                    worst = max(worst, c.max_residual)
                    tol = c.tolerance
                    ok = ok and c.passed
        detail.append(f"{name}={worst:.1e}(tol {tol:.0e})")
    _criterion(8, "spin representation (bdi cases)", ok, ", ".join(detail))


def test_criterion_9_lenard(reports):
    wl, _ = _residual(reports, "lenard")
    wt, _ = _residual(reports, "trace_identity")
    ok = (_all_pass(reports, "lenard") and _all_pass(reports, "trace_identity")
          and wl <= 1e-5 and wt <= 1e-9)
    _criterion(9, "Lenard recursion up to n_eig + trace identity", ok,
               f"max recursion residual = {wl:.2e} (tol 1e-5), "
               f"trace gap = {wt:.2e} (tol 1e-9)")


def test_criterion_10_normalization_finding():
    out = measure_diii_normalization(n=3, samples=10000, seed=SEED)
    ok = out["matches"] in ("[0,2]", "[-1,3]")
    lo, hi = {"[0,2]": (0.0, 2.0), "[-1,3]": (-1.0, 3.0)}.get(
        out["matches"], (np.nan, np.nan))
    ok = ok and out["min"] >= lo - 1e-6 and out["max"] <= hi + 1e-6
    _criterion(10, "SO(6)/U(3) eigenvalue range via the pencil oracle", ok,
               f"empirical [{out['min']:.4f}, {out['max']:.4f}] over "
               f"{out['samples']} samples, matches {out['matches']}")
