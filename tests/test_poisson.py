"""Bruhat/KKS matrices, the Nijenhuis pencil and the fd-based identities."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnorbit import (ConventionError, NumericalError, build_case, build_pair,
                     bruhat_matrix, chain_spectrum, lenard_check,
                     nijenhuis_apply, nijenhuis_formula, pencil_spectrum,
                     poisson)
from pnorbit.hermsym import (OrbitPoint, batch_points, parse_case,
                             random_point, sample_rng, stabilizer_element)
from pnorbit.numkernel import DEFAULT_FD_STEP
from pnorbit.poisson import (chain_gradient, connection_check,
                             directional_derivatives, flow_points,
                             gradient_bracket, jacobi_residual, kks_raw,
                             nijenhuis_restricted, nstar_eigen_residual,
                             pencil_eigenvalues, traces_of_powers)
from pnorbit.spectrum import chain_free_vector

from helpers import cartan_element

SIGNS = (1, -1)


def tangent_vector(case, m, rng, normalize=True):
    x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim))
    v = x @ m - m @ x
    if normalize:
        v = v / max(1.0, np.linalg.norm(case.alg.coefficients(v).real))
    return v


def test_kks_antisymmetry_rank_and_kernel(all_cases):
    for case in all_cases:
        p = random_point(case, 31)
        k = kks_raw(case, p.m)
        assert np.abs(k + k.T).max() == 0.0
        s = np.linalg.svd(k, compute_uv=False)
        assert int((s > 1e-9 * s[0]).sum()) == case.dim_m
        # kernel at rho contains exactly the stabilizer directions
        k0 = kks_raw(case, case.rho)
        s0 = np.linalg.svd(k0, compute_uv=False)
        assert int((s0 > 1e-9 * s0[0]).sum()) == case.dim_m


# The einsum formulas the GEMM kernels replaced, kept as an oracle.
def einsum_kks_raw(case, m):
    basis = case.alg.basis
    mx = np.einsum("ij,ajk->aik", m, basis)
    p = np.einsum("aij,bji->ab", mx, basis)
    return (p.T - p).real


def einsum_bruhat_matrix(case, g, s_0=SIGNS[1]):
    alg = case.alg
    basis = alg.basis

    def j_stack(coefs):
        return np.einsum("...a,aij->...ij", coefs @ alg.jmat.T, basis)

    m = g @ case.rho @ g.conj().T
    xi = (np.einsum("ij,ajk->aik", m, basis)
          - np.einsum("aij,jk->aik", basis, m))
    coef = -np.einsum("aij,bji->ab", xi, basis).real
    c_xi = 1j * xi + j_stack(coef)
    z = np.einsum("ji,ajk,kl->ail", g.conj(), c_xi, g)
    anti = (z - np.conj(np.swapaxes(z, 1, 2))) / 2
    herm = (z + np.conj(np.swapaxes(z, 1, 2))) / 2j
    coef_b = -np.einsum("aij,bji->ab", herm, basis).real
    g_part = anti - j_stack(coef_b)
    b_part = z - g_part
    return -s_0 * np.einsum("aij,bji->ab", g_part, b_part).imag


def test_kernels_match_einsum_oracle(all_cases):
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 89, 0, 5)
        for g in [np.eye(case.alg.size, dtype=complex), *gs]:
            m = g @ case.rho @ g.conj().T
            k = kks_raw(case, m)
            p0_ref = einsum_bruhat_matrix(case, g)
            for new, ref in ((k, einsum_kks_raw(case, m)),
                             (bruhat_matrix(case, g), p0_ref),
                             (bruhat_matrix(case, g, k=k), p0_ref)):
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(new - ref).max() <= 1e-13 * scale, case.name


def test_stacked_kernels_match_per_point(all_cases):
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 13, 0, 4)
        k = kks_raw(case, ms)
        p0 = bruhat_matrix(case, gs)
        block = [0, case.alg.dim - 1, 1]
        p0_block = bruhat_matrix(case, gs, k=k, block=block)
        for i in range(len(gs)):
            k_i = kks_raw(case, ms[i])
            assert np.array_equal(k[i], k_i), case.name
            assert np.array_equal(p0[i], bruhat_matrix(case, gs[i])), case.name
            k_g = kks_raw(case, gs[i] @ case.rho @ gs[i].conj().T)
            assert np.array_equal(p0[i], bruhat_matrix(case, gs[i], k=k_g))
            assert np.abs(p0_block[i] - p0[i][np.ix_(block, block)]).max() <= (
                1e-14 * max(1.0, np.abs(p0[i]).max()))
        # two leading axes
        assert np.array_equal(bruhat_matrix(case, gs.reshape((2, 2) + gs.shape[1:])),
                              p0.reshape((2, 2) + p0.shape[1:]))


def test_traces_of_powers_stack_matches_pair_route(all_cases):
    # the SVD-free Tr (K D)^k route against Tr of N restricted to the
    # tangent basis of build_pair; at the identity coset every trace is 0
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 29, 0, 3)
        gs = np.concatenate([np.eye(case.alg.size, dtype=complex)[None], gs])
        got = traces_of_powers(case, gs, case.n_eig + 1, SIGNS)
        assert got.shape == (4, case.n_eig + 1)
        assert np.abs(got[0]).max() <= 1e-12, case.name
        for g, row in zip(gs, got):
            nt = nijenhuis_restricted(build_pair(case, g, SIGNS))
            ref = [np.trace(np.linalg.matrix_power(nt, j)) / j
                   for j in range(1, case.n_eig + 2)]
            assert np.abs(row - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("descriptor,several", [("aiii:k=2,n=4", False),
                                                ("diii:n=6", True)])
def test_directional_derivatives_match_pointwise_loop(descriptor, several):
    case = parse_case(descriptor)
    g = random_point(case, 19).g
    calls = []

    def funcs(gs, ms):
        calls.append(len(gs))
        k = kks_raw(case, ms)
        p0 = bruhat_matrix(case, gs, SIGNS[1], k=k)
        return np.concatenate([k.reshape(len(k), -1), p0.reshape(len(k), -1),
                               chain_free_vector(case, ms)], axis=1)

    got = directional_derivatives(case, g, funcs)
    assert sum(calls) == 2 * case.alg.dim
    assert (len(calls) > 1) == several
    # the per-point oracle: one flow point per call, forward minus backward
    h = DEFAULT_FD_STEP
    rows = []
    for gp, gm in flow_points(case, g, h):
        fp = funcs(gp[None], (gp @ case.rho @ gp.conj().T)[None])[0]
        fm = funcs(gm[None], (gm @ case.rho @ gm.conj().T)[None])[0]
        rows.append((fp - fm) / (2 * h))
    assert np.abs(got - np.stack(rows)).max() <= 1e-12


def test_build_pair_takes_one_svd(gr24, monkeypatch):
    # the one SVD of the bracket layer is of K0, on the first build of a
    # case; later builds, lenard_check on the pair it is given and its fd
    # flows (traces_of_powers) take none
    calls = {"svd": 0, "pinv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(poisson, "_BASES", {})     # a fresh case
    p = random_point(gr24, 97)
    gs, _ = batch_points(gr24, 97, 0, 6)
    # the first build, then one point and a stack of six
    for g, svds in ((p.g, 1), (p.g, 0), (gs, 0)):
        calls.update(svd=0, pinv=0)
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
            mp.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
            pair = build_pair(gr24, g, SIGNS)
        assert calls == {"svd": svds, "pinv": 0}
        ref = np.linalg.pinv(pair.k_raw, rcond=1e-9)
        assert np.abs(pair.k_pinv - ref).max() <= 1e-12
    pair = build_pair(gr24, p.g, SIGNS)
    calls.update(svd=0, pinv=0)
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        mp.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
        lenard_check(pair, gr24.n_eig)
    assert calls == {"svd": 0, "pinv": 0}


def test_bracket_layer_matches_per_point_route(all_cases):
    # build_pair and traces_of_powers carry K0 and its SVD over from rho by
    # A = Ad_{g^-1}; the per-point route takes kks_raw(m) and its own SVD
    for case in all_cases + [build_case("diii", n=6)]:
        r = case.dim_m
        s0 = np.linalg.svd(kks_raw(case, case.rho), compute_uv=False)
        # the rank cut at 1e-9 has all the margin there is
        assert np.abs(s0[:r] - 1.0).max() <= 1e-13, case.name
        assert s0[r:].max(initial=0.0) <= 1e-14, case.name
        gs, ms = batch_points(case, 43, 0, 3)
        pair = build_pair(case, gs, SIGNS)
        traces = traces_of_powers(case, gs, case.n_eig + 1, SIGNS)
        basis, jmat = case.alg.basis, case.alg.jmat
        for i, (g, m) in enumerate(zip(gs, ms)):
            k = kks_raw(case, m)
            assert np.abs(pair.k_raw[i] - k).max() <= 1e-13, case.name
            ref = np.linalg.pinv(k, rcond=1e-9)
            assert np.abs(pair.k_pinv[i] - ref).max() <= 1e-12, case.name
            # an orthonormal basis of range(K(m)), which has dimension r
            t = pair.tangent[i]
            assert np.abs(t.T @ t - np.eye(r)).max() <= 1e-13
            u = np.linalg.svd(k)[0][:, :r]
            assert np.abs(t @ (t.T @ u) - u).max() <= 1e-12, case.name
            # Tr N^k = (-s_0 s_K)^k Tr (K(m) D)^k, with D = A J A^T - J
            a = -np.einsum("ji,ajk,kl,bli->ab", g.conj(), basis, g, basis,
                           optimize=True).real
            kd = k @ (a @ jmat @ a.T - jmat)
            c = -SIGNS[1] * SIGNS[0]
            want = [c ** j * np.trace(np.linalg.matrix_power(kd, j)) / j
                    for j in range(1, case.n_eig + 2)]
            assert np.abs(traces[i] - want).max() <= (
                1e-12 * max(1.0, np.abs(want).max())), case.name
        # a row off the group by 1e-6 fails the certificate that replaces
        # the per-point rank test, alone or in a stack
        bad = gs.copy()
        bad[1, 0] *= 1 + 1e-6
        for g in (bad[1], bad):
            with pytest.raises(NumericalError, match="KKS rank"):
                build_pair(case, g, SIGNS)


def pair_row(pair, i):
    """Row i of a stacked BracketPair, as a pair of one point."""
    pt = pair.point
    return replace(pair, point=OrbitPoint(pt.case, pt.g[i], pt.m[i]),
                   p0=pair.p0[i], pk=pair.pk[i], k_raw=pair.k_raw[i],
                   tangent=pair.tangent[i], k_pinv=pair.k_pinv[i])


def test_stacked_pencil_matches_batch_of_one(all_cases):
    rng = np.random.default_rng(7)
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 37, 0, 4)
        gs = np.concatenate([np.eye(case.alg.size, dtype=complex)[None], gs])
        ms = np.concatenate([case.rho[None], ms])
        pair = build_pair(case, gs, SIGNS)
        assert pair.p0.shape == (5, case.alg.dim, case.alg.dim)
        ev, im = pencil_eigenvalues(pair)
        lam = pencil_spectrum(pair)
        vs = np.stack([tangent_vector(case, m, rng) for m in ms])
        n_pencil = nijenhuis_apply(pair, vs)
        n_formula = nijenhuis_formula(case, ms, vs)
        for i, g in enumerate(gs):
            one = build_pair(case, g, SIGNS)
            for name in ("p0", "pk", "k_pinv"):
                got, want = getattr(pair, name)[i], getattr(one, name)
                assert np.abs(got - want).max() <= 1e-13, (case.name, name)
            # singular vectors are fixed up to sign
            sign = np.sign((pair.tangent[i] * one.tangent).sum(axis=0))
            assert np.abs(pair.tangent[i] * sign - one.tangent).max() <= 1e-13
            ev1, im1 = pencil_eigenvalues(one)
            assert np.abs(ev[i] - ev1).max() <= 1e-13, case.name
            assert abs(im[i] - im1) <= 1e-13
            assert np.abs(lam[i] - pencil_spectrum(one)).max() <= 1e-13
            assert np.abs(n_pencil[i] - nijenhuis_apply(one, vs[i])).max() <= 1e-13
            assert np.abs(n_formula[i]
                          - nijenhuis_formula(case, ms[i], vs[i])).max() <= 1e-13


def test_stack_raises_when_one_row_breaks_a_check(gr24):
    gs, ms = batch_points(gr24, 41, 0, 4)
    # a non-unitary row: g rho g^dag leaves the orbit and K gains rank
    bad_gs = gs.copy()
    bad_gs[2] = bad_gs[2] * np.array([1.5, 1.0, 1.0, 1.0])
    for g in (bad_gs[2], bad_gs):
        with pytest.raises(NumericalError, match="KKS rank"):
            build_pair(gr24, g, SIGNS)

    pair = build_pair(gr24, gs, SIGNS)
    # a non-tangent vector in one row
    rng = np.random.default_rng(5)
    vs = np.stack([tangent_vector(gr24, m, rng) for m in ms])
    vs[1] = cartan_element(gr24.alg, [1.0, 0.5, 0.2])
    for p, v in ((pair_row(pair, 1), vs[1]), (pair, vs)):
        with pytest.raises(ConventionError, match="not tangent"):
            nijenhuis_apply(p, v)

    # one row whose restricted N is similar to q: complex, then unpaired
    t = pair.tangent[3]
    rot = np.kron(np.eye(t.shape[1] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    for q, msg in ((rot, "not real"), (np.diag(np.arange(t.shape[1])), "pairing")):
        p0 = pair.p0.copy()
        p0[3] = pair.pk[3] @ t @ q @ t.T
        broken = replace(pair, p0=p0)
        for p in (pair_row(broken, 3), broken):
            with pytest.raises(NumericalError, match=msg):
                pencil_spectrum(p)
        pencil_spectrum(pair_row(broken, 2))     # the other rows are fine


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["aiii:k=1,n=3", "aiii:k=2,n=4", "ci:n=2", "ci:n=3",
                        "diii:n=3", "diii:n=4", "bdi:m=5", "bdi:m=6"]),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=10), st.data())
def test_pencil_spectrum_independent_of_chunking(desc, seed, count, data):
    case = parse_case(desc)
    split = data.draw(st.integers(min_value=1, max_value=count - 1))
    gs, _ = batch_points(case, seed, 0, count)
    whole = pencil_spectrum(build_pair(case, gs, SIGNS))
    parts = [pencil_spectrum(build_pair(case, part, SIGNS))
             for part in (gs[:split], gs[split:])]
    assert np.abs(np.concatenate(parts) - whole).max() <= 1e-13


def test_bruhat_zero_at_identity(all_cases):
    for case in all_cases:
        p0 = bruhat_matrix(case, np.eye(case.alg.size, dtype=complex))
        assert np.abs(p0).max() <= 1e-12


def test_bruhat_antisymmetry_and_coset_invariance(all_cases):
    for case in all_cases:
        p = random_point(case, 37)
        p0 = bruhat_matrix(case, p.g)
        scale = max(1.0, np.abs(p0).max())
        assert np.abs(p0 + p0.T).max() <= 1e-11 * scale
        for j in range(3):
            h = stabilizer_element(case, sample_rng(71, j))
            assert np.abs(p0 - bruhat_matrix(case, p.g @ h)).max() <= 1e-9 * scale


def test_nijenhuis_two_routes_agree(all_cases, rng):
    for case in all_cases:
        p = random_point(case, 41)
        pair = build_pair(case, p.g, SIGNS)
        for _ in range(4):
            v = tangent_vector(case, p.m, rng)
            nv_pencil = nijenhuis_apply(pair, v)
            nv_formula = nijenhuis_formula(case, p.m, v)
            assert np.abs(nv_pencil - nv_formula).max() <= 1e-8


def test_nijenhuis_vanishes_at_identity(gr24, rng):
    pair = build_pair(gr24, np.eye(4, dtype=complex), SIGNS)
    v = tangent_vector(gr24, gr24.rho, rng)
    assert np.abs(nijenhuis_apply(pair, v)).max() <= 1e-12
    assert np.abs(nijenhuis_formula(gr24, gr24.rho, v)).max() <= 1e-12


def test_nijenhuis_rejects_non_tangent(gr24):
    p = random_point(gr24, 43)
    pair = build_pair(gr24, p.g, SIGNS)
    # a stabilizer direction translated to m is not tangent in general;
    # use a plain Cartan element instead
    bad = cartan_element(gr24.alg, [1.0, 0.5, 0.2])
    with pytest.raises(ConventionError):
        nijenhuis_apply(pair, bad)


def test_pencil_spectrum_identity_and_doubling(all_cases):
    for case in all_cases:
        pair = build_pair(case, np.eye(case.alg.size, dtype=complex), SIGNS)
        lam = pencil_spectrum(pair)
        assert np.abs(lam).max() <= 1e-10
        p = random_point(case, 47)
        pair = build_pair(case, p.g, SIGNS)
        ev, imax = pencil_eigenvalues(pair)
        assert imax <= 1e-8
        assert np.abs(ev[0::2] - ev[1::2]).max() <= 1e-8


def test_gr12_pencil_in_simplex():
    case = build_case("aiii", k=1, n=2)
    for seed in range(5):
        p = random_point(case, seed)
        lam = pencil_spectrum(build_pair(case, p.g, SIGNS))
        assert lam.shape == (1,)
        assert -1e-9 <= lam[0] <= 2 + 1e-9


def test_pencil_matches_chain(all_cases):
    for case in all_cases:
        p = random_point(case, 53)
        lam = pencil_spectrum(build_pair(case, p.g, SIGNS))
        chain = chain_spectrum(case, p.m).free_values()
        assert np.abs(lam - chain).max() <= 1e-7, case.name


# every case with aiii n <= 5, ci n <= 3, diii n <= 4, bdi m <= 8 that the
# all_cases fixture leaves out
OUTSIDE_FIXTURES = ([f"aiii:k={k},n={n}" for n in range(2, 6) for k in range(1, n)
                     if (k, n) not in ((1, 2), (2, 4))]
                    + ["ci:n=1", "ci:n=3", "diii:n=2", "diii:n=4",
                       "bdi:m=4", "bdi:m=7", "bdi:m=8"])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(OUTSIDE_FIXTURES),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_identity_zero_and_pencil_chain_match_outside_fixtures(desc, seed):
    case = parse_case(desc)
    eye = np.eye(case.alg.size, dtype=complex)
    assert np.abs(bruhat_matrix(case, eye)).max() <= 1e-10
    chain0 = chain_spectrum(case, case.rho, validate=False).free_values()
    assert np.abs(chain0).max() <= 1e-10
    assert np.abs(pencil_eigenvalues(build_pair(case, eye, SIGNS))[0]).max() <= 1e-10
    p = random_point(case, seed)
    lam = pencil_spectrum(build_pair(case, p.g, SIGNS))
    chain = chain_spectrum(case, p.m).free_values()      # sorted
    assert np.abs(lam - chain).max() <= 1e-7, desc


def test_bracket_of_coordinates_closed_form(sp2):
    # the fd-gradient bracket route of run_suite, on the coordinates F_a
    p = random_point(sp2, 59)
    pair = build_pair(sp2, p.g, SIGNS)
    k = kks_raw(sp2, p.m)
    coords = [0, 3, 2, 7, 1, 4]
    dvec = directional_derivatives(
        sp2, p.g, lambda gs, ms: sp2.alg.coefficients(ms).real[:, coords])
    br = gradient_bracket(pair, dvec.T, pair.pk)
    for i in range(0, len(coords), 2):
        a, b = coords[i], coords[i + 1]
        assert abs(br[i, i + 1] - SIGNS[0] * k[a, b]) <= 1e-9
        assert abs(br[i, i]) <= 1e-12


def test_bracket_leibniz(gr24):
    p = random_point(gr24, 61)
    pair = build_pair(gr24, p.g, SIGNS)

    def funcs(gs, ms):
        f = gr24.alg.coefficients(ms).real[:, [0, 4, 9]]
        return np.concatenate([f, f[:, :1] * f[:, 1:2]], axis=1)

    f1, f2, _, _ = funcs(p.g[None], p.m[None])[0]
    dvec = directional_derivatives(gr24, p.g, funcs)
    for pmat in (pair.pk, pair.p0):
        br = gradient_bracket(pair, dvec.T, pmat)
        assert abs(br[3, 2] - (f1 * br[1, 2] + f2 * br[0, 2])) <= 1e-6


def test_jacobi_residuals(sp2, so6u3):
    rng = np.random.default_rng(3)
    for case in (sp2, so6u3):
        p = random_point(case, 67)
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(8)]
        pair = build_pair(case, p.g, SIGNS)
        assert jacobi_residual(pair, "kks", triples) <= 1e-6
        assert jacobi_residual(pair, 0.0, triples) <= 1e-5
        assert jacobi_residual(pair, 1.0, triples) <= 1e-5


def test_lenard_gr12_and_sp2(sp2):
    gr12 = build_case("aiii", k=1, n=2)
    p = random_point(gr12, 71)
    out = lenard_check(build_pair(gr12, p.g, SIGNS), gr12.n_eig)
    assert out["trace_gap"] <= 1e-9
    p = random_point(sp2, 71)
    out = lenard_check(build_pair(sp2, p.g, SIGNS), sp2.n_eig)
    assert out["max"] <= 1e-5
    assert out["trace_gap"] <= 1e-9


def test_nstar_eigenvalue_equation(gr24, bdi6):
    for case in (gr24, bdi6):
        p = random_point(case, 73)
        pair = build_pair(case, p.g, SIGNS)
        assert nstar_eigen_residual(pair, chain_gradient(pair)) <= 1e-5


def test_connection_block_vs_full(all_cases, rng):
    for case in all_cases:
        p = random_point(case, 79)
        v = tangent_vector(case, p.m, rng)
        res, has_blocks = connection_check(case, p.g, v)
        if case.tag == "bdi":
            assert not has_blocks and res == 0.0
        else:
            assert has_blocks and res <= 1e-10
        res0, _ = connection_check(case, p.g, np.zeros_like(v))
        assert res0 == 0.0


def test_connection_ci_plus_block_directly(sp2, rng):
    # nabla(sigma_+) = -C_+(dmu) sigma_+ read off the full formula
    p = random_point(sp2, 83)
    v = tangent_vector(sp2, p.m, rng)
    jv = sp2.alg.j_apply(v)
    full = (-jv + (p.m @ v - v @ p.m)) @ p.g
    cp = 1j * v + jv
    sigma_p = p.g @ sp2.w_plus
    assert np.abs(full @ sp2.w_plus + cp @ sigma_p).max() <= 1e-10
