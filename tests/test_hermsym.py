"""Case construction, orbit sampling, moment map and idempotents."""

import ctypes
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from pnorbit import (ConventionError, UsageError, build_case, build_pair,
                     hermsym, liealg, moment, parse_case, verify)
from pnorbit.hermsym import (SAMPLE_CHUNK_BYTES, _finish_case, batch_points,
                             check_group_element, group_residual,
                             identity_point, point_chunks, random_point,
                             sample_coefficients, stabilizer_elements,
                             torus_fixed_points)
from pnorbit.numkernel import expm_antihermitian
from pnorbit.poisson import (directional_derivatives, kks_raw, nijenhuis_apply,
                             nijenhuis_formula)
from pnorbit.spectrum import batch_violations, chain_batch

from helpers import (batch_points_einsum, eigenbundles, idempotents, kphi,
                     sample_rng)


def test_rho_matches_case_matrices(gr24, sp2, bdi5):
    # Gr(2,4): rho = (i/2) diag(1,1,-1,-1)
    assert np.abs(gr24.rho - 0.5j * np.diag([1, 1, -1, -1])).max() == 0.0
    # Sp(n)/U(n): rho = diag((i/2) 1_n, -(i/2) 1_n)
    n = sp2.params["n"]
    expect = np.diag([0.5j] * n + [-0.5j] * n)
    assert np.abs(sp2.rho - expect).max() == 0.0
    # SO(m)/SO(m-2)xSO(2): rho = diag(0, sigma)
    m = bdi5.params["m"]
    expect = np.zeros((m, m))
    expect[m - 2, m - 1], expect[m - 1, m - 2] = 1.0, -1.0
    assert np.abs(bdi5.rho - expect).max() == 0.0


def test_kphi_closed_forms(gr24, sp2, so6u3, bdi5):
    n, k = 4, 2
    expect = np.exp(1j * np.pi * (1 - k / n)) * np.diag([1, 1, -1, -1])
    assert np.abs(kphi(gr24) - expect).max() <= 1e-12
    assert np.abs(kphi(sp2) - np.diag([1j, 1j, -1j, -1j])).max() <= 1e-12
    nn = so6u3.params["n"]
    kd = np.zeros((2 * nn, 2 * nn))
    kd[:nn, nn:], kd[nn:, :nn] = np.eye(nn), -np.eye(nn)
    assert np.abs(kphi(so6u3) - kd).max() <= 1e-12
    assert np.abs(kphi(bdi5) - np.diag([1, 1, 1, -1, -1])).max() <= 1e-12


def test_kphi_is_exp_pi_rho_and_involution(all_cases):
    for case in all_cases:
        k = kphi(case)
        assert np.abs(k - scipy.linalg.expm(np.pi * case.rho)).max() <= 1e-12
        # Ad_K^2 = id on the algebra basis
        k2 = k @ k
        for x in case.alg.basis[::5]:
            ad2 = k2 @ x @ np.linalg.inv(k2)
            assert np.abs(ad2 - x).max() <= 1e-11


def test_dimension_counts(all_cases):
    expect = {"Gr(1,2)": 2, "Gr(2,4)": 8, "Sp(2)/U(2)": 6,
              "SO(6)/U(3)": 6, "SO(5)/SO(3)xSO(2)": 6, "SO(6)/SO(4)xSO(2)": 8}
    for case in all_cases:
        assert case.dim_m == expect[case.name]
        assert case.n_eig == case.dim_m // 2


def test_remark_dimension_checks():
    assert build_case("diii", n=4).dim_m == 12   # dim SO(8)/U(4) = 28 - 16
    assert build_case("diii", n=5).dim_m == 20   # dim SO(10)/U(5) = 45 - 25


def test_r_constants(all_cases):
    for case in all_cases:
        if case.tag == "aiii":
            k, n = case.params["k"], case.params["n"]
            assert abs(case.r_plus - 1j * (n - k) / n) <= 1e-15
        else:
            assert abs(case.r_plus - 0.5j) <= 1e-15


def test_rho_acts_as_r_on_eigenbundles(gr24, sp2, so6u3):
    for case in (gr24, sp2, so6u3):
        w_plus, w_minus = eigenbundles(case)
        assert np.abs(case.rho @ w_plus - case.r_plus * w_plus).max() <= 1e-12
        r_minus = case.r_plus - 1j
        assert np.abs(case.rho @ w_minus - r_minus * w_minus).max() <= 1e-12


def test_j_restricted_to_h_perp_is_ad_rho(all_cases, rng):
    for case in all_cases:
        for _ in range(4):
            x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim))
            ad = lambda y: case.rho @ y - y @ case.rho
            xp = -ad(ad(x))          # projection onto h_perp
            assert np.abs(case.alg.j_apply(xp) - ad(xp)).max() <= 1e-10


def test_j_convention_holds_without_chamber_flip():
    # the Weyl chambers of liealg give J|_{h_perp} = ad_rho on every case up
    # to aiii n = 6 (all k), ci n = 4, diii n = 5 and bdi m = 9, and on
    # aiii:k=5,n=10, ci:n=6, diii:n=8 and bdi:m=13; build_case raises
    # ConventionError where they would not.  J T0 = ad_rho T0 = -K0 T0 over
    # the whole tangent space
    sweep = ([f"aiii:k={k},n={n}" for n in range(2, 7) for k in range(1, n)]
             + [f"ci:n={n}" for n in range(1, 5)]
             + [f"diii:n={n}" for n in range(2, 6)]
             + [f"bdi:m={m}" for m in range(4, 10)]
             + ["aiii:k=5,n=10", "ci:n=6", "diii:n=8", "bdi:m=13"])
    for desc in sweep:
        case = parse_case(desc)
        t0 = case.tangent
        k0 = kks_raw(case, case.rho)
        assert np.abs(case.alg.jmat @ t0 + k0 @ t0).max() <= 1e-10, desc


def test_opposite_chamber_raises(gr24):
    # -H0 gives -J, so J|_{h_perp} = -ad_rho: the case fails its check
    case = gr24
    alg = liealg._finish(replace(case.alg, h0=-case.alg.h0))
    with pytest.raises(ConventionError, match="J convention"):
        _finish_case(case.tag, case.params, case.name, alg, case.rho,
                     case.r_plus, case.chain_plan)


def test_random_point_determinism_and_orbit(sp2):
    p1 = random_point(sp2, 11)
    p2 = random_point(sp2, 11)
    assert np.array_equal(p1.g, p2.g)
    assert np.abs(p1.g.conj().T @ p1.g - np.eye(4)).max() <= 1e-11
    s1 = np.linalg.eigvalsh(-1j * p1.m)
    s0 = np.linalg.eigvalsh(-1j * sp2.rho)
    assert np.abs(s1 - s0).max() <= 1e-10


# samples per point_chunks chunk: 512 KiB over itemsize N^2, complex for
# aiii and ci, float64 for the real forms diii and bdi (desk, then scale)
CHUNK_SIZES = {
    "aiii:k=1,n=2": 8192, "aiii:k=1,n=3": 3640, "aiii:k=2,n=4": 2048,
    "ci:n=1": 8192, "ci:n=2": 2048, "ci:n=3": 910,
    "diii:n=2": 4096, "diii:n=3": 1820, "diii:n=4": 1024,
    "bdi:m=5": 2621, "bdi:m=6": 1820, "bdi:m=7": 1337,
    "ci:n=8": 128, "aiii:k=5,n=10": 327, "diii:n=8": 256, "bdi:m=13": 387}


@pytest.mark.parametrize("descriptor, full", CHUNK_SIZES.items())
def test_point_chunks_fit_the_byte_budget(descriptor, full):
    # every chunk's g stack fits SAMPLE_CHUNK_BYTES and a full chunk takes
    # as many samples as fit; chunks are never empty, and they tile
    # 0..count-1 with the samples batch_points draws (checked at the cut)
    case = parse_case(descriptor)
    chunks = list(point_chunks(case, 3, full + 1))
    assert [(start, len(g)) for start, g, _ in chunks] == [(0, full), (full, 1)]
    for _, g, m in chunks:
        assert g.dtype == case.alg.basis.dtype and g.shape[1:] == case.rho.shape
        assert 0 < g.nbytes <= SAMPLE_CHUNK_BYTES
        assert m.shape == g.shape
    assert chunks[0][1].nbytes + chunks[1][1].nbytes > SAMPLE_CHUNK_BYTES
    want_g, want_m = batch_points(case, 3, full - 1, 2)
    assert np.array_equal(chunks[0][1][-1], want_g[0])
    assert np.array_equal(chunks[1][1][0], want_g[1])
    assert np.array_equal(chunks[1][2][0], want_m[1])


def test_batch_points_chunk_independent(so6u3):
    g, _ = batch_points(so6u3, 5, 0, 8)
    ga, _ = batch_points(so6u3, 5, 0, 3)
    gb, _ = batch_points(so6u3, 5, 3, 5)
    assert np.array_equal(g, np.concatenate([ga, gb]))
    # sample i is exp of a Gaussian algebra element drawn from stream (seed, i);
    # so(6) samples are real, formed from the real generators
    coefs = sample_rng(5, 2).standard_normal(so6u3.alg.dim)
    x = np.einsum("sa,aij->sij", coefs[None], so6u3.alg.basis.real)
    assert np.array_equal(g[2], expm_antihermitian(x)[0])


def test_so_cases_sample_in_real_arithmetic(all_cases):
    # diii and bdi are real forms: their algebra's basis and every map on
    # it, samples, stabilizer moves, the m, T and N_r of fd flow points,
    # both N v routes and the torus-fixed points are float64, so the real
    # path cannot fall back to complex arithmetic unnoticed
    so_cases = [case for case in all_cases if case.tag in ("diii", "bdi")]
    assert len(so_cases) == 3
    for case in so_cases:
        alg = case.alg
        g, m = batch_points(case, 3, 0, 4)
        hs = stabilizer_elements(case, 3, 0, 4)
        c = sample_coefficients(3, 0, 4, alg.dim)
        pair = build_pair(case, g, m=m)
        v = verify._tangent_vectors(pair, alg.basis[:3, None])
        routes = (v, nijenhuis_apply(pair, v, check=False),
                  nijenhuis_formula(case, m, v))
        flows = []
        directional_derivatives(case, g, lambda flow: flows.append(flow)
                                or np.zeros(len(flow.m)))
        frames = [flows[0].m, flows[0].tangent_rows(slice(None)), flows[0].nr]
        for arr in (case.rho, g, m, hs, *frames,
                    identity_point(case).g, alg.basis, alg.flat,
                    alg.flat_t, alg.jflat, alg.side, alg.coefficients(m),
                    alg.from_coefficients(c), alg.j_apply(m),
                    alg.ad_matrix(m), *routes, *torus_fixed_points(case)):
            assert arr.dtype == np.float64, case.name


def test_random_point_is_batch_of_one(all_cases):
    for case in all_cases:
        p = random_point(case, 6)
        g, m = batch_points(case, 6, 0, 3)
        assert np.array_equal(p.g, g[0]) and np.array_equal(p.m, m[0])


# the Philox coefficient stream, recorded bit for bit: (seed, index) -> row
PINNED_COEFFICIENTS = {
    (2024, 0): ["0x1.2cfbfe700fc36p-5", "-0x1.2d826426a072dp-1",
                "-0x1.5c84f34092df9p+0"],
    (2024, 1): ["-0x1.124c35c3192b0p+0", "0x1.726cc239bb029p-1",
                "0x1.d1caace21c01ep-1"],
    (7, 2**40 + 3): ["0x1.c4a40573a33b6p-1", "-0x1.0cf524a25c8dbp-3",
                     "0x1.247b0d1e59851p+0"],
    (2**64 - 1, 5): ["0x1.3f159f746e17ep+0", "0x1.3ef281c631df9p-1",
                     "-0x1.731c408ea3b7bp+0"],
}


def test_coefficient_stream_is_pinned():
    for (seed, index), row in PINNED_COEFFICIENTS.items():
        want = np.array([float.fromhex(v) for v in row])
        assert np.array_equal(sample_coefficients(seed, index, 1, 3)[0], want)
        assert np.array_equal(sample_rng(seed, index).standard_normal(3), want)
    # one generator over a range draws what a fresh one per sample draws
    coefs = sample_coefficients(2024, 0, 6, 10)
    assert np.array_equal(coefs, np.stack(
        [sample_rng(2024, i).standard_normal(10) for i in range(6)]))


def _oracle_rows(seed, start, count, dim):
    return np.stack([sample_rng(seed, start + i).standard_normal(dim)
                     for i in range(count)])


def test_sampler_writes_the_philox_state_in_place():
    # the in-place route is the one taken here; 3000-sample runs at the
    # desk dimensions reach ziggurat rejections (draws of more than one
    # uint64 per value), at the 64-bit edges of seed and start
    assert hermsym._layout_holds(hermsym._PhiloxState)
    for dim in (15, 21, 28):
        for start in (2**40, 2**63):
            want = _oracle_rows(2**64 - 1, start, 3000, dim)
            assert np.array_equal(
                sample_coefficients(2**64 - 1, start, 3000, dim), want)
        assert sample_coefficients(2024, 7, 0, dim).shape == (0, dim)


def test_seeds_stay_in_64_bits():
    # the Philox key is 64 bits wide: a seed outside [0, 2**64) would
    # alias a seed inside it, and raises instead
    assert hermsym.philox_key(2**64 - 1) == 2**64 - 1
    for seed in (-1, -2**64, 2**64):
        with pytest.raises(UsageError, match="2\\*\\*64"):
            sample_coefficients(seed, 0, 1, 5)


def test_sample_indices_stay_in_64_bits():
    # the last counter draws its stream; a start past it, or below 0,
    # would alias another sample's counter and raises instead
    top = 2**64 - 1
    assert np.array_equal(sample_coefficients(2024, top, 1, 5)[0],
                          sample_rng(2024, top).standard_normal(5))
    for start, count in ((2**64, 1), (-1, 1), (top, 2), (2**64 + 5, 1)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample_coefficients(2024, start, count, 5)


class _ShiftedState(ctypes.Structure):
    # numpy's philox_state with buffer_pos four bytes late, in the padding
    # before the block buffer: a layout the once-per-process check rejects
    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("pad", ctypes.c_int),
                ("buffer_pos", ctypes.c_int),
                ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


def test_sampler_falls_back_to_the_state_dict(monkeypatch):
    dims = (15, 21, 28)
    in_place = {dim: sample_coefficients(2024, 0, 3000, dim) for dim in dims}
    assert not hermsym._layout_holds(_ShiftedState)
    by_state = hermsym._repoint_by_state
    routes = []

    def spy(bg):
        routes.append(bg)
        return by_state(bg)

    monkeypatch.setattr(hermsym, "_PhiloxState", _ShiftedState)
    monkeypatch.setattr(hermsym, "_repoint_by_state", spy)
    for dim in dims:
        coefs = sample_coefficients(2024, 0, 3000, dim)
        assert np.array_equal(coefs, in_place[dim])
        assert np.array_equal(coefs, _oracle_rows(2024, 0, 3000, dim))
    assert len(routes) == len(dims)
    test_coefficient_stream_is_pinned()
    assert len(routes) == len(dims) + len(PINNED_COEFFICIENTS) + 1


def test_sampler_matches_einsum_oracle(all_cases):
    for case in all_cases:
        g, m = batch_points(case, 2024, 0, 400)
        g_ref, m_ref = batch_points_einsum(case, 2024, 0, 400)
        assert np.abs(g - g_ref).max() <= 1e-13
        assert np.abs(m - m_ref).max() <= 1e-13
        batch, ref = chain_batch(case, m), chain_batch(case, m_ref)
        if batch["kind"] == "gt":
            pairs = zip(batch["rows"], ref["rows"])
        else:
            pairs = ((batch["a"], ref["a"]), (batch["b"], ref["b"]))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13
        assert batch_violations(case, batch) == batch_violations(case, ref)


def test_group_residual_stacks_and_rejects(all_cases, rng):
    for case in all_cases:
        g, _ = batch_points(case, 4, 0, 6)
        assert group_residual(case, g) <= 1e-12
        assert group_residual(case, g) == max(group_residual(case, x) for x in g)
        check_group_element(case, g)
        bad = g[0] * np.exp(0.1j) if case.alg.family != "A" else 2 * g[0]
        assert group_residual(case, bad) > 1e-3
        with pytest.raises(ConventionError):
            check_group_element(case, bad)


def test_moment_identity_and_examples(gr24, bdi5):
    assert np.abs(moment(gr24, np.eye(4, dtype=complex)) - gr24.rho).max() == 0
    # AIII: m = i e_+ - i (k/n)
    p = random_point(gr24, 3)
    ep, em = idempotents(gr24, p.g)
    k, n = gr24.params["k"], gr24.params["n"]
    assert np.abs(p.m - (1j * ep - 1j * k / n * np.eye(n))).max() <= 1e-11
    # BDI: m^2 = e_-  (with the sign of rho^2 = -e_- on the 2-plane)
    q = random_point(bdi5, 3)
    _, em = idempotents(bdi5, q.g)
    assert np.abs(q.m @ q.m + em).max() <= 1e-11


def test_idempotents(all_cases, rng):
    for case in all_cases:
        p = random_point(case, 7)
        ep, em = idempotents(case, p.g)
        n = case.alg.size
        assert np.abs(ep @ ep - ep).max() <= 1e-11
        assert np.abs(em @ em - em).max() <= 1e-11
        assert np.abs(ep + em - np.eye(n)).max() <= 1e-11
        w_plus, w_minus = eigenbundles(case)
        assert abs(np.trace(ep).real - w_plus.shape[1]) <= 1e-11
        assert abs(np.trace(em).real - w_minus.shape[1]) <= 1e-11
        # reconstruction mu = sigma_+ R_+(rho) sigma_+^dag + sigma_- R_-(rho) sigma_-^dag
        sp = p.g @ w_plus
        sm = p.g @ w_minus
        rp = w_plus.conj().T @ case.rho @ w_plus
        rm = w_minus.conj().T @ case.rho @ w_minus
        rebuilt = sp @ rp @ sp.conj().T + sm @ rm @ sm.conj().T
        assert np.abs(rebuilt - p.m).max() <= 1e-11


def test_moment_of_a_stack_is_the_sampled_moment(all_cases):
    # g rho g^dag per row, for a stack of N points (where reversing all
    # three axes still broadcasts) and of 3
    for case in all_cases:
        for count in (case.alg.size, 3):
            gs, ms = batch_points(case, 23, 0, count)
            assert np.array_equal(moment(case, gs), ms), (case.name, count)


def test_moment_coset_invariance(all_cases):
    for case in all_cases:
        p = random_point(case, 13)
        for h in stabilizer_elements(case, 99, 0, 20):
            gh = p.g @ h
            check_group_element(case, gh, tol=1e-10)
            assert np.abs(moment(case, gh) - p.m).max() <= 1e-10


def test_stabilizer_dimension(all_cases):
    # dim h = dim g - dim M, and every stabilizer basis element commutes with
    # rho; the tangent basis T0 is orthonormal, orthogonal to h and spans
    # range(K0), K0 = kks_raw(rho)
    for case in all_cases:
        assert len(case.stabilizer) == case.alg.dim - case.dim_m
        for s in case.stabilizer:
            assert np.abs(case.rho @ s - s @ case.rho).max() <= 1e-12
        t = case.tangent
        assert t.shape == (case.alg.dim, case.dim_m)
        assert np.abs(t.T @ t - np.eye(case.dim_m)).max() <= 1e-13, case.name
        h = case.alg.coefficients(case.stabilizer).real
        assert np.abs(h @ t).max() <= 1e-13, case.name
        k0 = kks_raw(case, case.rho)
        assert np.linalg.matrix_rank(k0) == case.dim_m, case.name
        assert np.abs(t @ (t.T @ k0) - k0).max() <= 1e-13, case.name


def test_stabilizer_elements_stream(all_cases):
    # row i is a batch of one at start + i, whatever the chunking; it is
    # exp of the draws of stream (seed, start + i) against the stabilizer
    # basis, and lies in the group and fixes rho
    for case in all_cases:
        hs = stabilizer_elements(case, 41, 7, 6)
        assert hs.shape == (6,) + case.rho.shape
        for i, h in enumerate(hs):
            assert np.array_equal(h, stabilizer_elements(case, 41, 7 + i, 1)[0])
        assert np.array_equal(hs, np.concatenate(
            [stabilizer_elements(case, 41, 7, 2), stabilizer_elements(case, 41, 9, 4)]))
        for i, h in enumerate(hs):
            c = sample_rng(41, 7 + i).standard_normal(len(case.stabilizer))
            want = expm_antihermitian(np.einsum("k,kij->ij", c, case.stabilizer))
            assert np.abs(h - want).max() <= 1e-13, case.name
        check_group_element(case, hs, tol=1e-12)
        moved = hs @ case.rho @ np.conj(np.swapaxes(hs, 1, 2))
        assert np.abs(moved - case.rho).max() <= 1e-12, case.name


def test_torus_fixed_points_are_on_orbit(all_cases):
    for case in all_cases:
        s0 = np.linalg.eigvalsh(-1j * case.rho)
        pts = torus_fixed_points(case)
        assert pts
        for g in pts:
            check_group_element(case, g, tol=1e-12)
            m = moment(case, g)
            assert np.abs(np.linalg.eigvalsh(-1j * m) - s0).max() <= 1e-12


def test_parse_case_roundtrip_and_errors():
    case = parse_case("aiii:k=2,n=4")
    assert case.name == "Gr(2,4)"
    assert parse_case("bdi:m=6").alg.family == "D"
    assert parse_case("bdi:m=7").alg.family == "B"
    for bad in ("aiii:k=9,n=3", "nope:n=2", "ci:n=zero", "diii:n=1", "ci"):
        with pytest.raises(UsageError):
            parse_case(bad)


def test_identity_point(gr12):
    p = identity_point(gr12)
    assert np.abs(p.m - gr12.rho).max() == 0.0


# --- closed-form block parametrizations (optional sanity checks) ----------

def test_ci_compression_block_form(sp2):
    # with g = [[A, B], [-conj(B), conj(A)]], the u(n) block of m is
    # i (A A^dag - 1/2)
    p = random_point(sp2, 19)
    n = sp2.params["n"]
    a = p.g[:n, :n]
    assert np.abs(p.g[n:, n:] - a.conj()).max() <= 1e-12
    assert np.abs(p.g[n:, :n] + p.g[:n, n:].conj()).max() <= 1e-12
    expect = 1j * (a @ a.conj().T - 0.5 * np.eye(n))
    assert np.abs(p.m[:n, :n] - expect).max() <= 1e-12


def test_diii_compression_is_half_block_combination(so6u3):
    p = random_point(so6u3, 19)
    n = so6u3.params["n"]
    x11, x12 = p.m[:n, :n], p.m[:n, n:]
    x21, x22 = p.m[n:, :n], p.m[n:, n:]
    w_plus, _ = eigenbundles(so6u3)
    b0 = w_plus.conj().T @ p.m @ w_plus
    assert np.abs(b0 - (x11 + x22 + 1j * (x12 - x21)) / 2).max() <= 1e-12


def test_bdi_b1_is_corner_determinant(bdi5):
    # the so(2) hamiltonian b_1 equals det of the bottom-right 2x2 of g
    from pnorbit import chain_spectrum
    p = random_point(bdi5, 19)
    amb = bdi5.params["m"]
    cs = chain_spectrum(bdi5, p.m)
    corner = p.g[amb - 2:, amb - 2:].real
    assert abs(cs.b[0] - np.linalg.det(corner)) <= 1e-12
