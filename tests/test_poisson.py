"""Bruhat/KKS matrices, the Nijenhuis pencil and the fd-based identities."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnorbit import (ConventionError, NumericalError, build_case, build_pair,
                     bruhat_matrix, chain_spectrum, lenard_check,
                     nijenhuis_apply, nijenhuis_formula, pencil_spectrum,
                     poisson, verify)
from pnorbit.hermsym import (CSTRUCT_TOL, _finish_case,
                             batch_points, conjugate_rho, parse_case,
                             random_point, stabilizer_elements)
from pnorbit.numkernel import DEFAULT_FD_STEP, expm_antihermitian
from pnorbit.poisson import (BracketPair, chain_gradient, connection_check,
                             directional_derivatives, gradient_bracket,
                             jacobi_residual, kks_raw, nstar_eigen_residual,
                             pencil_eigenvalues)
from pnorbit.spectrum import chain_batch, chain_free_vector, gap_regularity

from helpers import (PointFrames, brackets_by_adjoint, brackets_from_tangent,
                     cartan_element, complex_basis_case,
                     directional_derivatives_by_basis, eigenbundles,
                     flow_points, jacobi_entries_by_adjoint,
                     jacobi_residual_per_t, nijenhuis_restricted_inverse,
                     record_calls, traces_of_powers_ambient)


def traces_by_matrix_power(nr, k_max):
    """(1/k) Tr N_r^k for k = 1..k_max of N_r (..., n, n), by
    np.linalg.matrix_power: the plain oracle of the Lenard traces."""
    return np.stack([np.trace(np.linalg.matrix_power(nr, k), axis1=-2,
                              axis2=-1) / k for k in range(1, k_max + 1)],
                    axis=-1)


def tangent_vector(case, m, rng, normalize=True):
    x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim))
    v = x @ m - m @ x
    if normalize:
        v = v / max(1.0, np.linalg.norm(case.alg.coefficients(v).real))
    return v


@pytest.mark.parametrize("descriptor", ["diii:n=2", "diii:n=3", "diii:n=4",
                                        "bdi:m=5", "bdi:m=6", "bdi:m=7"])
def test_so_real_maps_match_the_complex_basis(descriptor, rng):
    # the real basis of so(m) and every map on it against the same maps on
    # the complex-cast basis, at real coefficients, algebra elements and
    # orbit points
    case = parse_case(descriptor)
    alg, oracle = case.alg, complex_basis_case(case)
    g, m = batch_points(case, 11, 0, 4)
    c = rng.standard_normal((4, alg.dim))
    x = alg.from_coefficients(c)
    maps = [
        (alg.coefficients(m), oracle.alg.coefficients(m)),
        (x, oracle.alg.from_coefficients(c)),
        (alg.j_apply(x), oracle.alg.j_apply(x)),
        (kks_raw(case, m), kks_raw(oracle, m)),
        (bruhat_matrix(case, g), bruhat_matrix(oracle, g)),
    ]
    assert np.iscomplexobj(oracle.alg.flat) and np.iscomplexobj(oracle.alg.side)
    assert np.array_equal(alg.jmat, oracle.alg.jmat)      # J from the same h0
    for real, ref in maps:
        assert real.dtype == np.float64
        assert np.abs(real - ref).max() <= 1e-15, descriptor


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


def einsum_bruhat_matrix(case, g):
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
    return np.einsum("aij,bji->ab", g_part, b_part).imag      # s_0 = -1


def test_kernels_match_einsum_oracle(all_cases):
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 89, 0, 5)
        for g in [np.eye(case.alg.size, dtype=complex), *gs]:
            m = g @ case.rho @ g.conj().T
            k = kks_raw(case, m)
            p0_ref = einsum_bruhat_matrix(case, g)
            for new, ref in ((k, einsum_kks_raw(case, m)),
                             (bruhat_matrix(case, g), p0_ref),
                             (brackets_from_tangent(build_pair(case, g))[1],
                              p0_ref)):
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(new - ref).max() <= 1e-13 * scale, case.name


def test_stacked_kernels_match_per_point(all_cases):
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 13, 0, 4)
        k = kks_raw(case, ms)
        p0 = bruhat_matrix(case, gs)
        for i in range(len(gs)):
            k_i = kks_raw(case, ms[i])
            assert np.array_equal(k[i], k_i), case.name
            assert np.array_equal(p0[i], bruhat_matrix(case, gs[i])), case.name
            k_g = kks_raw(case, gs[i] @ case.rho @ gs[i].conj().T)
            assert np.array_equal(k[i], k_g), case.name
        # two leading axes
        assert np.array_equal(bruhat_matrix(case, gs.reshape((2, 2) + gs.shape[1:])),
                              p0.reshape((2, 2) + p0.shape[1:]))


def test_pair_moment_is_the_sampled_moment(all_cases):
    # build_pair forms m = g rho g^dag as batch_points does: bitwise the same
    # stack, alone or per row, so passing the sampled m changes no pair
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 29, 0, 6)
        assert np.array_equal(build_pair(case, gs).point.m, ms), case.name
        for i in range(len(gs)):
            assert np.array_equal(build_pair(case, gs[i]).point.m, ms[i])
        assert build_pair(case, gs, m=ms).point.m is ms


def test_real_adjoint_matches_complex_route(all_cases):
    # real so(n) samples meet the real side and coefficient map; the same
    # g as complex matrices takes the complex route
    for case in all_cases + [build_case("diii", n=6)]:
        if case.tag not in ("diii", "bdi"):
            continue
        gs, _ = batch_points(case, 31, 0, 4)
        a = poisson._adjoint(case, gs)
        assert np.abs(a - poisson._adjoint(case, gs.astype(complex))).max() <= 1e-14


def test_traces_of_powers_stack_matches_pair_route(all_cases):
    # Tr N_r^k of a stacked pair's N_r against the ambient Tr (K D)^k route
    # and against the N_r of each point's own pair; at the identity coset
    # every trace is 0
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 29, 0, 3)
        gs = np.concatenate([np.eye(case.alg.size, dtype=complex)[None], gs])
        got = traces_by_matrix_power(build_pair(case, gs).nr, case.n_eig + 1)
        assert got.shape == (4, case.n_eig + 1)
        assert np.abs(got[0]).max() <= 1e-12, case.name
        amb = traces_of_powers_ambient(case, gs, case.n_eig + 1)
        assert np.abs(got - amb).max() <= 1e-12 * max(1.0, np.abs(amb).max())
        for g, row in zip(gs, got):
            ref = traces_by_matrix_power(build_pair(case, g).nr, case.n_eig + 1)
            assert np.abs(row - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_tangent_side_reads_the_pair_tangent(all_cases):
    # T^T is the adjoint kernel at g^dag with the tangent basis as its
    # side: A T0 to round-off, without forming A
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 37, 0, 4)
        tt = poisson._adjoint(case, poisson._dagger(gs), case.tangent_side)
        want = poisson._adjoint(case, gs) @ case.tangent
        assert np.abs(np.swapaxes(tt, -1, -2) - want).max() <= 1e-14, case.name
        assert np.array_equal(build_pair(case, gs).tangent,
                              np.swapaxes(tt, -1, -2)), case.name


def test_pair_matches_adjoint_route(all_cases):
    # the brackets that the pair's T and N_r stand for, PK = T K_T T^T and
    # P0 = T (N_r K_T) T^T, against A K0 A^T, K D K and A T0 from the
    # dim x dim A, at the identity coset and at samples, alone and stacked
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 59, 0, 4)
        gs = np.concatenate([np.eye(case.alg.size, dtype=gs.dtype)[None], gs])
        for g in (gs[0], gs[1], gs):
            pair = build_pair(case, g)
            for name, got, want in zip(
                    ("pk", "p0", "tangent"),
                    brackets_from_tangent(pair) + (pair.tangent,),
                    brackets_by_adjoint(case, g)):
                scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
                err = np.abs(got - want).max(axis=(-2, -1))
                assert (err <= 1e-13 * scale).all(), (case.name, name)


@pytest.mark.parametrize("descriptor", ["aiii:k=2,n=4", "ci:n=3", "diii:n=4",
                                        "bdi:m=7"])
def test_tangent_frame_readers_match_adjoint_route(descriptor, monkeypatch):
    # every reader of a pair contracts in the tangent frame: the brackets
    # w^T K_T w and w^T K_T N_r w, N on columns as T N_r T^T, and the
    # Jacobi contraction against X K_T T[z]^T.  On a stacked pair of three
    # points they match the dense PK and P0 of the dim x dim A; random
    # vectors dvec stand in for the fd derivatives, so every value is O(1),
    # and reach the readers as the flows return them, w = T^T dvec
    case = parse_case(descriptor)
    dim, rng = case.alg.dim, np.random.default_rng(29)
    gs, _ = batch_points(case, 67, 0, 3)
    pair = build_pair(case, gs)
    pk, p0, _ = brackets_by_adjoint(case, gs)

    def assert_close(got, want, scale):
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, scale), descriptor

    dvecs = rng.standard_normal((3, 4, dim))
    c = pk @ np.swapaxes(dvecs, -1, -2)
    for got, p in zip(gradient_bracket(pair, dvecs @ pair.tangent), (pk, p0)):
        want = np.swapaxes(c, -1, -2) @ p @ c
        assert_close(got, want, np.abs(want).max())

    cols = rng.standard_normal((2, 3, dim, 5))      # one more leading axis
    want = -(p0 @ (pk @ cols))
    assert_close(poisson._nijenhuis_cols(pair, cols), want, np.abs(want).max())

    # one triple per call: its one cyclic sum per point is the residual
    for _ in range(4):
        triple = tuple(rng.choice(dim, 3, replace=False))
        zs = [triple[2], triple[0], triple[1]]
        fake = rng.standard_normal((3, dim, 2, 3))
        fake_w = np.einsum("saj,sakc->sjkc", pair.tangent, fake)
        with monkeypatch.context() as mp:
            mp.setattr(poisson, "directional_derivatives",
                       lambda *args, **kwargs: fake_w)
            got = jacobi_residual(pair, [triple])
        dk, d0 = np.moveaxis(fake, -2, 0)
        for name, d, p in (("kks", dk, pk), ("t0", d0, p0),
                           ("t1", d0 + dk, p0 + pk)):
            terms = ((pk @ d) * p[..., zs]).sum(axis=-2)
            want = np.abs(terms.sum(axis=-1)).max()
            assert_close(got[name], want, np.abs(terms).max())


def test_bracket_layer_reads_only_the_tangent_side(all_cases, monkeypatch):
    # the pair and the pencil read the tangent frame alone: every adjoint
    # kernel they call has Case.tangent_side as its side.  An fd flow reads
    # its flow points through the base points: A is formed once per base
    # point per flow, and the tangent side meets only the steps
    # exp(+-h Y_j), once per case, when the flow data are formed.  Only
    # bruhat_matrix, the independent per-point route, forms A per point
    calls = []
    adjoint = poisson._adjoint

    def recorded(case, g, side=None):
        calls.append((side is case.tangent_side, g))
        return adjoint(case, g, side)

    monkeypatch.setattr(poisson, "_adjoint", recorded)
    for case in all_cases:
        monkeypatch.setattr(case, "flow_data", {})
        gs, _ = batch_points(case, 61, 0, 2)
        pair = build_pair(case, gs)
        pencil_spectrum(pair)
        assert [side for side, _ in calls] == [True], case.name
        calls.clear()
        lenard_check(pair, case.n_eig)
        jacobi_residual(pair, [(0, 1, 2), (case.alg.dim - 1, 0, 1)])
        steps = poisson._dagger(flow_points(case, np.eye(case.alg.size)))
        at_steps = [g for side, g in calls if side]
        assert [side for side, _ in calls] == (
            [True] * len(at_steps) + [False, False]), case.name
        assert np.array_equal(
            np.concatenate([g.reshape((-1,) + gs.shape[1:]) for g in at_steps]),
            steps.reshape((-1,) + gs.shape[1:])), case.name
        assert all(np.array_equal(g, gs) for side, g in calls if not side)
        calls.clear()
        bruhat_matrix(case, gs)
        assert [side for side, _ in calls] == [False], case.name
        calls.clear()


@pytest.mark.parametrize("descriptor,several", [("aiii:k=2,n=4", False),
                                                ("diii:n=6", True)])
def test_directional_derivatives_match_pointwise_loop(descriptor, several):
    case = parse_case(descriptor)
    g = random_point(case, 19).g
    calls = []

    def funcs(flow):
        # K, P0 = T N_r K_T T^T and the chain, from each flow point's m, T
        # and N_r
        calls.append(len(flow.m))
        k = kks_raw(case, flow.m)
        t = flow.tangent_rows(slice(None))
        p0 = t @ (flow.nr @ case.k_t) @ np.swapaxes(t, -1, -2)
        return np.concatenate([k.reshape(len(k), -1), p0.reshape(len(k), -1),
                               chain_free_vector(case, flow.m)], axis=1)

    def pointwise(g):
        # the per-point oracle: one flow point per call, forward minus
        # backward (the flow points against the per-flow-point route:
        # test_flow_chunks_match_the_per_flow_point_route)
        h = DEFAULT_FD_STEP
        base = poisson._BaseFrame(case, g[None])
        rho_s, z = poisson._flow_data(case, h)
        rows = []
        for j in range(case.dim_m):
            v = funcs(poisson.FlowChunk(base, rho_s[j:j + 1], z[j:j + 1]))
            rows.append((v[0] - v[1]) / (2 * h))
        return np.stack(rows)

    got = directional_derivatives(case, g, funcs)
    assert sum(calls) == 2 * case.dim_m
    assert (len(calls) > 1) == several
    assert np.abs(got - pointwise(g)).max() <= 1e-12
    # a stack (2, 1) of points: one block of dim_m rows per point, with the
    # flow directions of both points sharing the calls
    gs = np.stack([g, random_point(case, 23).g])[:, None]
    calls.clear()
    stacked = directional_derivatives(case, gs, funcs)
    assert sum(calls) == 2 * 2 * case.dim_m
    assert stacked.shape == (2, 1) + got.shape
    for row, g_i in zip(stacked, gs):
        assert np.abs(row[0] - pointwise(g_i[0])).max() <= 1e-12


def record_flows(mp):
    """Wrap poisson.directional_derivatives on the monkeypatch context mp;
    the returned list gets (funcs, rows) for every fd flow taken, rows
    being the number of flow points of each call of funcs."""
    flows = []

    def recorded(case, g, funcs, *args, **kwargs):
        rows = []

        def counted(flow):
            rows.append(len(flow.m))
            return funcs(flow)
        flows.append((funcs, rows))
        return directional_derivatives(case, g, counted, *args, **kwargs)

    mp.setattr(poisson, "directional_derivatives", recorded)
    return flows


def test_tangent_flows_are_basis_flows_in_the_tangent_frame(all_cases,
                                                             monkeypatch):
    # the flows g exp(+-h Y_j) give w = T^T dvec of the basis flows
    # exp(+-h X_a) g, for every function the fd checks differentiate (the
    # chain eigenvalues, N_r for the Lenard traces and the Jacobi entries),
    # at gap-regular points.  The basis route's normal part
    # dvec - T T^T dvec, which the tangent flows drop, is fd noise: it held
    # no information.  N_r is not a function on the orbit, and its own
    # normal part is O(1) (0.19-0.57 of max|N_r| here, 0 on Gr(1,2), whose
    # N_r is a multiple of 1); lenard_check reads it only contracted with
    # the base point's powers, Tr(N_r^k dN_r), where it is noise again.
    # Both routes are Richardson-extrapolated (h, h/2): at a single h the
    # two stencils' h^2 terms differ (1.3e-8 on ci:n=2 at a gap of 0.02),
    # and each is held relative to its values (I_15 of diii:n=6 is ~7e3)
    rng = np.random.default_rng(43)
    h = DEFAULT_FD_STEP
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 2024, 0, 20)
        regular = gap_regularity(case, chain_batch(case, ms)) > verify.GAP_THRESHOLD
        pair = build_pair(case, gs[regular][:3], m=ms[regular][:3])
        g, tan = pair.point.g, pair.tangent
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(4)]
        with monkeypatch.context() as mp:
            flows = record_flows(mp)
            chain_gradient(pair)
            lenard_check(pair, case.n_eig)
            jacobi_residual(pair, triples)
        assert len(flows) == 3, case.name
        for name, (funcs, _) in zip(("chain", "lenard", "jacobi"), flows):
            scale = max(1.0, np.abs(funcs(PointFrames(case, g))).max())
            w, dvec = [(4 * route(case, g, funcs, h / 2)
                        - route(case, g, funcs, h)) / 3
                       for route in (directional_derivatives,
                                     directional_derivatives_by_basis)]
            flat = dvec.reshape(dvec.shape[:2] + (-1,))
            want = np.swapaxes(tan, -1, -2) @ flat
            assert (np.abs(w.reshape(want.shape) - want).max()
                    <= 1e-9 * scale), case.name
            if name == "lenard":
                normal = np.abs(flat - tan @ want).max()
                assert normal >= 0.1 * scale or case.n_eig == 1, case.name
                powers = np.stack([np.linalg.matrix_power(pair.nr, k)
                                   for k in range(case.n_eig)], axis=1)
                flat = np.einsum("pdab,pkba->pdk", dvec, powers)
                scale = max(1.0, np.abs(traces_by_matrix_power(
                    pair.nr, case.n_eig)).max())
            assert (np.abs(flat - tan @ (np.swapaxes(tan, -1, -2) @ flat)).max()
                    <= 1e-9 * scale), case.name


def test_fd_flows_form_two_points_per_tangent_direction(all_cases,
                                                        monkeypatch):
    # every fd flow forms 2 dim_m flow points per point, not 2 dim: the
    # rows that reach funcs over each flow of chain_gradient, lenard_check,
    # jacobi_residual and the calibration, on a stack of three points
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 71, 0, 3)
        pair = build_pair(case, gs)
        with monkeypatch.context() as mp:
            flows = record_flows(mp)
            chain_gradient(pair)
            lenard_check(pair, case.n_eig)
            jacobi_residual(pair, [(0, 1, 2)])
            verify._calibration_residuals(case, gs)
        assert [sum(rows) for _, rows in flows] == [2 * case.dim_m * 3] * 4, (
            case.name)


def test_real_forms_take_real_sized_stacks(monkeypatch):
    # the adjoint kernel's budget counts the side's own entries: 8 bytes
    # for the real so-families, 16 for aiii and ci, so real forms take
    # twice the points per tangent-reader chunk
    cases = [parse_case(d) for d in (
        "diii:n=6", "diii:n=4", "bdi:m=7", "aiii:k=2,n=4", "ci:n=3")]
    chunks = {case.descriptor(): poisson._budget_points(case, case.dim_m)
              for case in cases}
    assert chunks == {"diii:n=6": 3, "diii:n=4": 21, "bdi:m=7": 33,
                      "aiii:k=2,n=4": 64, "ci:n=3": 18}
    # at diii:n=6, 20 samples: the identity pair and one of the samples, and
    # the Lenard flow's 30 directions, each at all 3 points, in 15 calls of
    # 2 directions (M Z: 3 x 2 x 2 flow points of 66 x 30 float64 in 2^18
    # bytes)
    assert poisson._flow_directions(parse_case("diii:n=6"), 3) == 2
    verify.calibrate()
    flows = record_flows(monkeypatch)
    calls = record_calls(monkeypatch, poisson, "build_pair")
    assert verify.run_suite("diii:n=6", 20, seed=2024).passed
    lenard = [rows for funcs, rows in flows
              if funcs.__qualname__.startswith("lenard_check.")]
    assert lenard == [[3 * 2 * 2] * 15]
    assert len(calls["build_pair"]) == 2


def test_flow_steps_formed_once_per_case_and_step(all_cases, monkeypatch):
    # exp(+-h Y_j) does not depend on the point: one exponential per case and
    # h, read-only flow data, bitwise s rho s^dag and _tangent at the steps.
    # The case holds its flow data, so they go when the case goes
    calls = []

    def counted(x):
        calls.append(len(x))
        return expm_antihermitian(x)

    monkeypatch.setattr(poisson, "expm_antihermitian", counted)
    for case in all_cases:
        monkeypatch.setattr(case, "flow_data", {})
        gs, _ = batch_points(case, 53, 0, 2)
        for h in (DEFAULT_FD_STEP, 1e-3):
            steps = flow_points(case, np.eye(case.alg.size), h)
            for g in gs:
                directional_derivatives(case, g, lambda flow: flow.nr, h)
            rho_s, z = poisson._flow_data(case, h)
            assert np.array_equal(rho_s, conjugate_rho(case, steps)), case.name
            assert np.array_equal(z, poisson._tangent(case, steps)), case.name
    assert calls == [case.dim_m for case in all_cases for _ in range(2)]
    assert not any(arr.flags.writeable for case in all_cases
                   for data in case.flow_data.values() for arr in data)
    case = parse_case("diii:n=4")
    z = weakref.ref(poisson._flow_data(case, DEFAULT_FD_STEP)[1])
    del case
    gc.collect()
    assert z() is None


def test_flow_chunks_match_the_per_flow_point_route(all_cases):
    # every flow point's m, T and N_r, read through its base point
    # (g rho_s g^dag, A Z and K_T (J_T - Z^T M Z)), against conjugate_rho,
    # _tangent and _restricted at the flow point g exp(+-h Y_j) itself, on
    # a stack of three points and at a single point
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 83, 0, 3)
        for g in (gs, gs[1]):
            chunks = []

            def kept(flow):
                chunks.append(flow)
                return np.zeros(len(flow.m))

            directional_derivatives(case, g, kept)
            want = PointFrames(case, flow_points(case, g).reshape(
                (-1,) + g.shape[-2:]))
            points = len(want) // (2 * case.dim_m)
            for name in ("m", "tangent", "nr"):
                # chunks in (point, direction, sign) order, a run of
                # directions each: restacked per point
                parts = [c.tangent_rows(slice(None)) if name == "tangent"
                         else getattr(c, name) for c in chunks]
                got = np.concatenate(
                    [p.reshape((points, -1) + p.shape[1:]) for p in parts],
                    axis=1).reshape(getattr(want, name).shape)
                ref = getattr(want, name)
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(got - ref).max() <= 1e-13 * scale, (
                    case.name, name, g.ndim)


def test_fd_flows_read_each_base_point_once(all_cases, monkeypatch):
    # lenard_check, jacobi_residual and chain_gradient read their flow
    # points through the base points: the adjoint kernel sees each base
    # point once per flow that reads T or N_r (never for the chain, which
    # reads m alone), and never a flow point
    rng = np.random.default_rng(31)
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 79, 0, 3)
        pair = build_pair(case, gs)
        lenard_check(pair, case.n_eig)          # the case's flow data, once
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(4)]
        base = sorted(g.tobytes() for g in gs)
        for check, reads in ((lambda: lenard_check(pair, case.n_eig), 1),
                             (lambda: jacobi_residual(pair, triples), 1),
                             (lambda: chain_gradient(pair), 0)):
            with monkeypatch.context() as mp:
                calls = record_calls(mp, poisson, "_adjoint")
                check()
            seen = sorted(row.tobytes() for args in calls["_adjoint"]
                          for row in args[1].reshape((-1,) + gs.shape[1:]))
            assert seen == sorted(base * reads), case.name


def test_bracket_layer_takes_no_svd(gr24, monkeypatch):
    # the bracket layer takes no SVD: K^+ = -K, certified when the case is
    # built by K0^2 = -T0 T0^T; no build, nor lenard_check on the pair it
    # is given and its fd flow of N_r, takes one
    calls = {"svd": 0, "pinv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    p = random_point(gr24, 97)
    gs, _ = batch_points(gr24, 97, 0, 6)
    # one point, twice, and a stack of six
    for g in (p.g, p.g, gs):
        calls.update(svd=0, pinv=0)
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
            mp.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
            pair = build_pair(gr24, g)
        assert calls == {"svd": 0, "pinv": 0}
        pk, _ = brackets_from_tangent(pair)
        ref = np.linalg.pinv(pk, rcond=1e-9)
        assert np.abs(-pk - ref).max() <= 1e-12
    pair = build_pair(gr24, p.g)
    calls.update(svd=0, pinv=0)
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        mp.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
        lenard_check(pair, gr24.n_eig)
    assert calls == {"svd": 0, "pinv": 0}


def test_bracket_layer_matches_per_point_route(all_cases):
    # build_pair carries K0 and T0 over from rho by the tangent frame T,
    # and Tr N^k reads the pair's N_r; the per-point route takes
    # kks_raw(m) and its own SVD.
    # K0's singular values, all 1 on the tangent space, are the oracle for
    # K^+ = -K
    for case in all_cases + [build_case("diii", n=6)]:
        r = case.dim_m
        s0 = np.linalg.svd(kks_raw(case, case.rho), compute_uv=False)
        # the rank cut at 1e-9 has all the margin there is
        assert np.abs(s0[:r] - 1.0).max() <= 1e-13, case.name
        assert s0[r:].max(initial=0.0) <= 1e-14, case.name
        gs, ms = batch_points(case, 43, 0, 3)
        pair = build_pair(case, gs)
        pk, _ = brackets_from_tangent(pair)
        traces = traces_by_matrix_power(pair.nr, case.n_eig + 1)
        basis, jmat = case.alg.basis, case.alg.jmat
        for i, (g, m) in enumerate(zip(gs, ms)):
            k = kks_raw(case, m)
            assert np.abs(pk[i] - k).max() <= 1e-13, case.name
            ref = np.linalg.pinv(k, rcond=1e-9)
            assert np.abs(-pk[i] - ref).max() <= 1e-12, case.name
            # an orthonormal basis of range(K(m)), which has dimension r
            t = pair.tangent[i]
            assert np.abs(t.T @ t - np.eye(r)).max() <= 1e-13
            u = np.linalg.svd(k)[0][:, :r]
            assert np.abs(t @ (t.T @ u) - u).max() <= 1e-12, case.name
            # Tr N^k = Tr (K(m) D)^k, with D = A J A^T - J
            a = -np.einsum("ji,ajk,kl,bli->ab", g.conj(), basis, g, basis,
                           optimize=True).real
            kd = k @ (a @ jmat @ a.T - jmat)
            want = [np.trace(np.linalg.matrix_power(kd, j)) / j
                    for j in range(1, case.n_eig + 2)]
            assert np.abs(traces[i] - want).max() <= (
                1e-12 * max(1.0, np.abs(want).max())), case.name
        # a row off the group by 1e-6 fails the certificate that replaces
        # the per-point rank test, alone or in a stack
        bad = gs.copy()
        bad[1, 0] *= 1 + 1e-6
        for g in (bad[1], bad):
            with pytest.raises(NumericalError, match="KKS rank"):
                build_pair(case, g)


def test_base_certifies_complex_structure(all_cases):
    # K^+ = -K rests on K0^2 = -T0 T0^T, certified when the case is built;
    # with rho scaled by 1 + 1e-11 the J convention still holds (residual
    # about 1e-11 <= 1e-10) but K0^2 + T0 T0^T is about 2e-11, and the
    # build raises
    for case in all_cases:
        with pytest.raises(NumericalError, match="complex structure"):
            _finish_case(case.tag, case.params, case.name, case.alg,
                         case.rho * (1 + 1e-11), case.r_plus, case.chain_plan)
        k0, t0 = kks_raw(case, case.rho), case.tangent
        assert np.abs(k0 @ k0 + t0 @ t0.T).max() <= CSTRUCT_TOL, case.name
        # the base data are shared by every pair of the case: read-only
        for arr in (case.k_t, case.j_t, case.tangent_side):
            assert not arr.flags.writeable, case.name
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


def test_stacked_pencil_matches_batch_of_one(all_cases):
    rng = np.random.default_rng(7)
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 37, 0, 4)
        gs = np.concatenate([np.eye(case.alg.size, dtype=complex)[None], gs])
        ms = np.concatenate([case.rho[None], ms])
        pair = build_pair(case, gs)
        dense = brackets_from_tangent(pair)
        assert dense[1].shape == (5, case.alg.dim, case.alg.dim)
        assert pair.nr.shape == (5, case.dim_m, case.dim_m)
        ev, im = pencil_eigenvalues(pair)
        lam = pencil_spectrum(pair)
        vs = np.stack([tangent_vector(case, m, rng) for m in ms])
        n_pencil = nijenhuis_apply(pair, vs)
        n_formula = nijenhuis_formula(case, ms, vs)
        for i, g in enumerate(gs):
            one = build_pair(case, g)
            for name, got, want in zip(("pk", "p0"), dense,
                                       brackets_from_tangent(one)):
                assert np.abs(got[i] - want).max() <= 1e-13, (case.name, name)
            # tangent bases agree up to sign
            sign = np.sign((pair.tangent[i] * one.tangent).sum(axis=0))
            assert np.abs(pair.tangent[i] * sign - one.tangent).max() <= 1e-13
            ev1, im1 = pencil_eigenvalues(one)
            assert np.abs(ev[i] - ev1).max() <= 1e-13, case.name
            assert abs(im[i] - im1) <= 1e-13
            assert np.abs(lam[i] - pencil_spectrum(one)).max() <= 1e-13
            assert np.abs(n_pencil[i] - nijenhuis_apply(one, vs[i])).max() <= 1e-13
            assert np.abs(n_formula[i]
                          - nijenhuis_formula(case, ms[i], vs[i])).max() <= 1e-13


def test_restricted_nijenhuis_matches_inverse_route(all_cases):
    # N_r = K_T (J_T - T^T J T) in the base tangent frame against its
    # definition (T^T P0 T)(T^T PK T)^-1, with PK and P0 from the dim x dim
    # A, at the one convention
    for case in all_cases + [build_case("diii", n=6)]:
        gs, _ = batch_points(case, 43, 0, 4)
        gs = np.concatenate([np.eye(case.alg.size, dtype=gs.dtype)[None], gs])
        pair = build_pair(case, gs)
        pk, p0, _ = brackets_by_adjoint(case, gs)
        want = nijenhuis_restricted_inverse(pair.tangent, pk, p0)
        scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
        err = np.abs(pair.nr - want).max(axis=(-2, -1))
        assert (err <= 1e-13 * scale).all(), case.name


def test_pencil_reads_no_bracket_matrix(all_cases):
    # a pair is its point, T and N_r: the pencil caches N_r and nothing
    # dim x dim, and the pair has no dense bracket to read
    for case in all_cases:
        gs, _ = batch_points(case, 47, 0, 3)
        for g in (gs[0], gs):
            pair = build_pair(case, g)
            pencil_spectrum(pair)
            assert set(vars(pair)) == {"point", "tangent", "nr"}, case.name
            assert not hasattr(pair, "pk") and not hasattr(pair, "p0")


def test_pair_rows_and_join(all_cases):
    # a row view reads g, m, T and (once formed) N_r at its rows; joining
    # views gives back the stack bit for bit, N_r included
    for case in all_cases:
        gs, ms = batch_points(case, 53, 0, 5)
        pair = build_pair(case, gs, m=ms)
        assert "nr" not in vars(pair[1:3])
        nr = pair.nr
        for rows in (2, slice(1, 4), np.array([0, 3, 4])):
            view = pair[rows]
            for got, want in ((view.point.g, gs), (view.point.m, ms),
                              (view.tangent, pair.tangent), (vars(view)["nr"], nr)):
                assert np.array_equal(got, want[rows]), case.name
        joined = BracketPair.join([pair[:1], pair[1:4], build_pair(case, gs[4:])])
        for got, want in ((joined.point.g, gs), (joined.point.m, ms),
                          (joined.tangent, pair.tangent), (joined.nr, nr)):
            assert np.array_equal(got, want), case.name


def test_stack_raises_when_one_row_breaks_a_check(gr24, monkeypatch):
    gs, ms = batch_points(gr24, 41, 0, 4)
    # a non-unitary row: g rho g^dag leaves the orbit and K gains rank
    bad_gs = gs.copy()
    bad_gs[2] = bad_gs[2] * np.array([1.5, 1.0, 1.0, 1.0])
    for g in (bad_gs[2], bad_gs):
        with pytest.raises(NumericalError, match="KKS rank"):
            build_pair(gr24, g)

    pair = build_pair(gr24, gs)
    # a non-tangent vector in one row
    rng = np.random.default_rng(5)
    vs = np.stack([tangent_vector(gr24, m, rng) for m in ms])
    vs[1] = cartan_element(gr24.alg, [1.0, 0.5, 0.2])
    for p, v in ((pair[1], vs[1]), (pair, vs)):
        with pytest.raises(ConventionError, match="not tangent"):
            nijenhuis_apply(p, v)

    # one row whose restricted N is similar to q: complex, then unpaired.
    # The row's P0 would be PK T q T^T, so N_r = K_r q K_r^-1 with
    # K_r = T^T PK T = K_T; it is injected where the pair forms N_r, in
    # row views and fresh pairs (replace) whose N_r is not yet cached:
    # pair itself never forms its N_r, so its row views carry none.
    t = pair.tangent[3]
    k_r = gr24.k_t
    rot = np.kron(np.eye(t.shape[1] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    restricted = poisson._restricted
    for q, msg in ((rot, "not real"), (np.diag(np.arange(t.shape[1])), "pairing")):
        bad = k_r @ q @ np.linalg.inv(k_r)

        def broken(case, tjt):
            n_r = restricted(case, tjt)
            if n_r.ndim == 3:
                n_r = n_r.copy()
                n_r[3] = bad
                return n_r
            own = np.array_equal(tjt, t.T @ (case.alg.jmat @ t))
            return bad if own else n_r

        with monkeypatch.context() as mp:
            mp.setattr(poisson, "_restricted", broken)
            for p in (pair[3], replace(pair)):
                with pytest.raises(NumericalError, match=msg):
                    pencil_spectrum(p)
            pencil_spectrum(pair[2])     # the other rows are fine


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["aiii:k=1,n=3", "aiii:k=2,n=4", "ci:n=2", "ci:n=3",
                        "diii:n=3", "diii:n=4", "bdi:m=5", "bdi:m=6"]),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=10), st.data())
def test_pencil_spectrum_independent_of_chunking(desc, seed, count, data):
    case = parse_case(desc)
    split = data.draw(st.integers(min_value=1, max_value=count - 1))
    gs, _ = batch_points(case, seed, 0, count)
    whole = pencil_spectrum(build_pair(case, gs))
    parts = [pencil_spectrum(build_pair(case, part))
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
        for h in stabilizer_elements(case, 71, 0, 3):
            assert np.abs(p0 - bruhat_matrix(case, p.g @ h)).max() <= 1e-9 * scale


def test_nijenhuis_two_routes_agree(all_cases, rng):
    for case in all_cases:
        p = random_point(case, 41)
        pair = build_pair(case, p.g)
        for _ in range(4):
            v = tangent_vector(case, p.m, rng)
            nv_pencil = nijenhuis_apply(pair, v)
            nv_formula = nijenhuis_formula(case, p.m, v)
            assert np.abs(nv_pencil - nv_formula).max() <= 1e-8


def test_nijenhuis_vanishes_at_identity(gr24, rng):
    pair = build_pair(gr24, np.eye(4, dtype=complex))
    v = tangent_vector(gr24, gr24.rho, rng)
    assert np.abs(nijenhuis_apply(pair, v)).max() <= 1e-12
    assert np.abs(nijenhuis_formula(gr24, gr24.rho, v)).max() <= 1e-12


def test_nijenhuis_rejects_non_tangent(gr24):
    p = random_point(gr24, 43)
    pair = build_pair(gr24, p.g)
    # a stabilizer direction translated to m is not tangent in general;
    # use a plain Cartan element instead
    bad = cartan_element(gr24.alg, [1.0, 0.5, 0.2])
    with pytest.raises(ConventionError):
        nijenhuis_apply(pair, bad)


def test_pencil_spectrum_identity_and_doubling(all_cases):
    for case in all_cases:
        pair = build_pair(case, np.eye(case.alg.size, dtype=complex))
        lam = pencil_spectrum(pair)
        assert np.abs(lam).max() <= 1e-10
        p = random_point(case, 47)
        pair = build_pair(case, p.g)
        ev, imax = pencil_eigenvalues(pair)
        assert imax <= 1e-8
        assert np.abs(ev[0::2] - ev[1::2]).max() <= 1e-8


def test_gr12_pencil_in_simplex():
    case = build_case("aiii", k=1, n=2)
    for seed in range(5):
        p = random_point(case, seed)
        lam = pencil_spectrum(build_pair(case, p.g))
        assert lam.shape == (1,)
        assert -1e-9 <= lam[0] <= 2 + 1e-9


def test_pencil_matches_chain(all_cases):
    for case in all_cases:
        p = random_point(case, 53)
        lam = pencil_spectrum(build_pair(case, p.g))
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
    chain0 = chain_spectrum(case, case.rho).free_values()
    assert np.abs(chain0).max() <= 1e-10
    assert np.abs(pencil_eigenvalues(build_pair(case, eye))[0]).max() <= 1e-10
    p = random_point(case, seed)
    lam = pencil_spectrum(build_pair(case, p.g))
    chain = chain_spectrum(case, p.m).free_values()      # sorted
    assert np.abs(lam - chain).max() <= 1e-7, desc


def test_bracket_of_coordinates_closed_form(sp2):
    # the fd-gradient bracket route of run_suite, on the coordinates F_a
    p = random_point(sp2, 59)
    pair = build_pair(sp2, p.g)
    k = kks_raw(sp2, p.m)
    coords = [0, 3, 2, 7, 1, 4]
    dvec = directional_derivatives(
        sp2, p.g,
        lambda flow: sp2.alg.coefficients(flow.m).real[:, coords])
    br, _ = gradient_bracket(pair, dvec.T)
    for i in range(0, len(coords), 2):
        a, b = coords[i], coords[i + 1]
        assert abs(br[i, i + 1] - k[a, b]) <= 1e-9
        assert abs(br[i, i]) <= 1e-12


def test_bracket_leibniz(gr24):
    p = random_point(gr24, 61)
    pair = build_pair(gr24, p.g)

    def funcs(flow):
        f = gr24.alg.coefficients(flow.m).real[:, [0, 4, 9]]
        return np.concatenate([f, f[:, :1] * f[:, 1:2]], axis=1)

    f1, f2, _, _ = funcs(PointFrames(gr24, p.g[None]))[0]
    dvec = directional_derivatives(gr24, p.g, funcs)
    for br in gradient_bracket(pair, dvec.T):
        assert abs(br[3, 2] - (f1 * br[1, 2] + f2 * br[0, 2])) <= 1e-6


def test_jacobi_residuals(sp2, so6u3):
    rng = np.random.default_rng(3)
    for case in (sp2, so6u3):
        p = random_point(case, 67)
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(8)]
        res = jacobi_residual(build_pair(case, p.g), triples)
        assert res["kks"] <= 1e-6
        assert res["t0"] <= 1e-5
        assert res["t1"] <= 1e-5


def test_jacobi_residual_takes_one_flow(all_cases, monkeypatch):
    # d(P0 + t K) = dP0 + t dK: one fd flow per pair serves KKS, t = 0 and
    # t = 1.  KKS and t = 0 are bitwise the per-t flows; t = 1 sums two fd
    # derivatives and moves by round-off
    rng = np.random.default_rng(11)
    for case in all_cases + [build_case("diii", n=6)]:
        pair = build_pair(case, random_point(case, 89).g)
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(6)]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return directional_derivatives(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(poisson, "directional_derivatives", counted)
            res = jacobi_residual(pair, triples)
        assert calls == [case], case.name
        assert res["kks"] == jacobi_residual_per_t(pair, "kks", triples)
        assert res["t0"] == jacobi_residual_per_t(pair, 0.0, triples)
        assert abs(res["t1"] - jacobi_residual_per_t(pair, 1.0, triples)) <= 1e-9


def test_jacobi_flow_blocks_match_adjoint_route(all_cases, monkeypatch):
    # at every flow point, the differentiated K and P0 entries from the
    # flow's tangent frame equal the entries of A K0 A^T and K D K, with A
    # at the flow point itself
    rng = np.random.default_rng(17)
    for case in all_cases + [build_case("diii", n=6)]:
        g = random_point(case, 97).g
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(5)]
        seen = []

        def captured(case_, g_, funcs, *args, **kwargs):
            def kept(flow):
                seen.append(funcs(flow))
                return seen[-1]
            return directional_derivatives(case_, g_, kept, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(poisson, "directional_derivatives", captured)
            jacobi_residual(build_pair(case, g), triples)
        # one base point: the chunks run through the directions in order
        got = np.concatenate(seen)
        gs = flow_points(case, g).reshape((-1,) + g.shape)
        want = jacobi_entries_by_adjoint(case, gs, triples)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-13 * scale, case.name


def chain_trace_gap(pair):
    """max |Tr N_r - 2 sum(lambda)| over a pair's points, with lambda the
    free chain eigenvalues: the trace identity on the chain side."""
    trace = np.trace(pair.nr, axis1=-2, axis2=-1)
    lam = chain_free_vector(pair.case, pair.point.m)
    return float(np.abs(trace - 2 * lam.sum(axis=-1)).max())


def test_lenard_gr12_and_sp2(sp2):
    # lenard_check returns the recursion alone; the trace identity is read
    # against the chain
    gr12 = build_case("aiii", k=1, n=2)
    for case in (gr12, sp2):
        pair = build_pair(case, random_point(case, 71).g)
        out = lenard_check(pair, case.n_eig)
        assert set(out) == {"steps", "max"}
        assert out["max"] <= 1e-5, case.name
        assert chain_trace_gap(pair) <= 1e-12, case.name


@pytest.mark.parametrize("descriptor", ["aiii:k=2,n=4", "ci:n=3", "diii:n=4",
                                        "bdi:m=7", "diii:n=6"])
def test_lenard_trace_rule_matches_per_flow_point_traces(descriptor,
                                                         monkeypatch):
    # lenard_check differences N_r and reads dI_k = Tr(N_r^(k-1) dN_r)
    # with the powers of the base point's N_r; the route it replaced
    # differenced I_k = (1/k) Tr N_r^k at every flow point.  Its w agree
    # with that route's to fd accuracy at gap-regular points, and its
    # steps are the Lenard residuals of this w
    case = parse_case(descriptor)
    gs, ms = batch_points(case, 2024, 0, 20)
    regular = gap_regularity(case, chain_batch(case, ms)) > verify.GAP_THRESHOLD
    pair = build_pair(case, gs[regular][:3], m=ms[regular][:3])
    k_max = case.n_eig
    dns = []

    def kept(*args, **kwargs):
        dns.append(directional_derivatives(*args, **kwargs))
        return dns[-1]

    monkeypatch.setattr(poisson, "directional_derivatives", kept)
    steps = lenard_check(pair, k_max)["steps"]
    (dn,) = dns
    powers = np.stack([np.linalg.matrix_power(pair.nr, k)
                       for k in range(k_max)], axis=1)
    w = np.einsum("pdab,pkba->pdk", dn, powers)
    old = directional_derivatives(
        case, pair.point.g,
        lambda flow: traces_by_matrix_power(flow.nr, k_max))
    assert np.abs(w - old).max() <= 1e-9 * max(1.0, np.abs(old).max())
    lhs = w[..., 1:]
    want = (np.linalg.norm(lhs - pair.nr @ w[..., :-1], axis=-2)
            / np.maximum(1.0, np.linalg.norm(lhs, axis=-2))).max(axis=0)
    assert np.abs(np.array(steps) - want).max() <= 1e-12


def test_nstar_eigenvalue_equation(gr24, bdi6):
    for case in (gr24, bdi6):
        p = random_point(case, 73)
        pair = build_pair(case, p.g)
        assert nstar_eigen_residual(pair, chain_gradient(pair)) <= 1e-5


def test_fd_checks_take_stacked_pairs(all_cases):
    # one stack contract: a pair of three points gives the per-point chain
    # gradients bitwise, and every fd check the largest per-point value
    rng = np.random.default_rng(13)
    for case in all_cases + [build_case("diii", n=6)]:
        gs, ms = batch_points(case, 61, 0, 3)
        pair = build_pair(case, gs, m=ms)
        ones = [build_pair(case, g, m=m) for g, m in zip(gs, ms)]
        dvec = chain_gradient(pair)
        dvecs = [chain_gradient(one) for one in ones]
        assert np.array_equal(dvec, np.stack(dvecs)), case.name
        triples = [tuple(rng.choice(case.alg.dim, 3, replace=False))
                   for _ in range(4)]

        def checks(p, d):
            lenard = lenard_check(p, case.n_eig)
            return {"steps": np.array(lenard["steps"]), "max": lenard["max"],
                    "trace_gap": chain_trace_gap(p),
                    "nstar": nstar_eigen_residual(p, d),
                    **jacobi_residual(p, triples)}

        got = checks(pair, dvec)
        assert got["trace_gap"] <= 1e-12, case.name
        per_point = [checks(one, d) for one, d in zip(ones, dvecs)]
        for name, value in got.items():
            want = np.max([r[name] for r in per_point], axis=0)
            assert np.abs(value - want).max(initial=0.0) <= 1e-14, (
                case.name, name)


def test_connection_check_on_every_family(all_cases, rng):
    # the connection formula N v = [-J(v), m] + v against the pencil, bdi
    # included: round-off at single points, exactly 0 at v = 0, and on a
    # stack with more leading axes of v the largest of its points' values
    for case in all_cases:
        p = random_point(case, 79)
        v = tangent_vector(case, p.m, rng)
        pair = build_pair(case, p.g)
        assert connection_check(pair, v) <= 1e-12, case.name
        assert connection_check(pair, np.zeros_like(v)) == 0.0, case.name
        g, m = batch_points(case, 79, 0, 4)
        x = case.alg.from_coefficients(rng.standard_normal((3, 1, case.alg.dim)))
        vs = x @ m - m @ x
        stacked = build_pair(case, g, m=m)
        want = max(connection_check(stacked[i], vs[:, i]) for i in range(4))
        assert connection_check(stacked, vs) == want, case.name


def test_connection_ci_plus_block_directly(sp2, rng):
    # nabla(sigma_+) = -C_+(dmu) sigma_+ read off the full formula
    p = random_point(sp2, 83)
    v = tangent_vector(sp2, p.m, rng)
    jv = sp2.alg.j_apply(v)
    full = (-jv + (p.m @ v - v @ p.m)) @ p.g
    cp = 1j * v + jv
    w_plus, _ = eigenbundles(sp2)
    sigma_p = p.g @ w_plus
    assert np.abs(full @ w_plus + cp @ sigma_p).max() <= 1e-10
