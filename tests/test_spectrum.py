"""Chain eigenvalues, free coordinates, interlacing, polytopes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnorbit import (ConventionError, build_case, chain_spectrum,
                     gt_interlace_check, parse_case, polytope_membership,
                     spectrum)
from pnorbit.hermsym import (batch_points, conjugate_rho, random_point,
                             sample_coefficients, torus_fixed_points)
from pnorbit.numkernel import expm_antihermitian
from pnorbit.spectrum import (batch_free_values, batch_margins,
                              batch_violations, chain_batch, chain_free_vector,
                              free_labels, gap_regularity,
                              eigenvalue_map_constants, top_row_constants)
from pnorbit.verify import GAP_THRESHOLD

from helpers import (bdi_chain_eigvalsh, eigenbundles, free_masks,
                     gt_chain_eigvalsh, record_calls)

GT_DESK = ["aiii:k=1,n=2", "aiii:k=1,n=3", "aiii:k=2,n=4", "ci:n=1", "ci:n=2",
           "ci:n=3", "diii:n=2", "diii:n=3", "diii:n=4"]
GT_SCALE = ["aiii:k=4,n=8", "ci:n=5", "diii:n=5", "diii:n=6", "diii:n=8"]


def test_map_constants(gr24, sp2, so6u3, bdi5):
    assert eigenvalue_map_constants(gr24) == (-2.0, 1.0)       # 2(n-k)/n = 1 for k=2,n=4
    a13 = build_case("aiii", k=1, n=3)
    slope, off = eigenvalue_map_constants(a13)
    assert slope == -2.0 and abs(off - 4.0 / 3.0) <= 1e-15
    for case in (sp2, so6u3, bdi5):
        assert eigenvalue_map_constants(case) == (-2.0, 1.0)


def test_gr24_top_row():
    case = build_case("aiii", k=2, n=4)
    assert np.allclose(top_row_constants(case), [-0.5, -0.5, 0.5, 0.5], atol=0)


def test_free_coordinate_counts():
    expect = {
        ("aiii", (("k", 1), ("n", 2))): 1,
        ("aiii", (("k", 2), ("n", 4))): 4,
        ("ci", (("n", 2),)): 3,
        ("ci", (("n", 3),)): 6,
        ("diii", (("n", 2),)): 1,
        ("diii", (("n", 3),)): 3,
        ("diii", (("n", 4),)): 6,
        ("bdi", (("m", 5),)): 3,
        ("bdi", (("m", 6),)): 4,
        ("bdi", (("m", 7),)): 5,
    }
    for (tag, params), count in expect.items():
        case = build_case(tag, **dict(params))
        assert case.n_eig == count
        assert len(free_labels(case)) == count
        if tag != "bdi":
            assert sum(int(m.sum()) for m in free_masks(case)) == count


def test_chain_at_identity_is_zero(all_cases):
    for case in all_cases:
        cs = chain_spectrum(case, case.rho)
        assert np.abs(cs.free_values()).max() <= 1e-12


def test_aiii_identity_frozen_values(gr24):
    # free GT coordinates of the identity coset sit at (n-k)/n
    cs = chain_spectrum(gr24, gr24.rho)
    for row, mask in zip(cs.rows, cs.masks):
        assert np.abs(row[mask] - 0.5).max() <= 1e-12 if mask.any() else True


def test_bdi_identity_chain_values(bdi5, bdi6):
    for case in (bdi5, bdi6):
        cs = chain_spectrum(case, case.rho)
        assert np.abs(cs.a).max() <= 1e-12
        assert abs(cs.b[0] - 1.0) <= 1e-12
        assert np.abs(cs.b[1:]).max() <= 1e-12


def test_bdi_block_values_match_hermitian_spectrum(bdi6):
    # a_k, read as the spectral norm of the real minor, is the top of the
    # spectrum of the Hermitian -i B
    _, ms = batch_points(bdi6, 37, 0, 50)
    a = chain_batch(bdi6, ms)["a"]
    ref = np.linalg.eigvalsh(-1j * ms[:, :4, :4].astype(complex))[:, -1]
    assert np.abs(a[:, 0] - ref).max() <= 1e-14


def _assert_top_row_from_row_two(rows, n):
    """The diii top row is row 2's entries 0, 2, 4, ... each taken twice,
    then exactly 1/2 at odd n."""
    top, row2 = rows[:2]
    assert np.array_equal(top[:, :2 * (n // 2)],
                          np.repeat(row2[:, 0::2], 2, axis=1))
    assert np.all(top[:, 2 * (n // 2):] == 0.5)


def test_diii_block_read_matches_v_plus_compression(so6u3):
    # diii reads W+^dag m W+ from the real N x N blocks of m; the complex
    # product through W+ is the reference, for real and complex stacks.
    # At n >= 5 the top row is no minor of b0 but row 2's pinned entries
    # doubled (its agreement with eigvalsh of the full block is
    # test_gt_rows_match_eigvalsh_oracle's); every row below is a minor
    for case in (so6u3, build_case("diii", n=6)):
        _, ms = batch_points(case, 53, 0, 512)
        w_plus, _ = eigenbundles(case)
        b0 = w_plus.conj().T @ ms @ w_plus
        nb = b0.shape[1]
        ref = {"kind": "gt",
               "rows": [np.linalg.eigvalsh(-1j * b0[:, :nb - r, :nb - r])
                        for r in range(nb)]}
        copied = int(nb >= 5)           # leading rows read from no minor
        for stack in (ms, ms.astype(complex)):
            got = chain_batch(case, stack)
            if copied:
                _assert_top_row_from_row_two(got["rows"], nb)
            for row, want in zip(got["rows"][copied:], ref["rows"][copied:]):
                assert np.abs(row - want).max() <= 1e-15, case.name
            assert batch_violations(case, got) == batch_violations(case, ref)


def test_bdi_a0_and_aN(bdi5):
    # a_0 = 1 enters through the cone; a_N = 0 because the last block is 1x1
    p = random_point(bdi5, 21)
    cs = chain_spectrum(bdi5, p.m)
    assert np.abs(cs.a).max() <= 1.0 + 1e-9
    assert len(cs.a) == 1 and len(cs.b) == 2     # so(5): one (a,b) pair + b_2


def test_gt_interlace_check_examples():
    assert gt_interlace_check([-0.5, 0.5], [0.0]) <= 0
    assert gt_interlace_check([-0.5, 0.5], [0.7]) > 0.19
    assert abs(gt_interlace_check([0.3, 0.3], [0.3])) <= 1e-15
    with pytest.raises(ConventionError):
        gt_interlace_check([1.0, 2.0], [1.0, 2.0])
    # leading axes are samples
    margin = gt_interlace_check([[-0.5, 0.5], [-0.5, 0.5]], [[0.0], [0.7]])
    assert margin[0] == -0.5 and abs(margin[1] - 0.2) <= 1e-15


def test_chain_rows_interlace(all_cases):
    for case in all_cases:
        p = random_point(case, 5)
        cs = chain_spectrum(case, p.m)    # validates interlacing internally
        ok, margins = polytope_membership(case, cs)
        assert ok, (case.name, margins)


def test_diii_pairing_and_pinned_value(so6u3):
    # the top row holds the pairing and the pinned 1/2 by construction
    for case in (so6u3, build_case("diii", n=5), build_case("diii", n=6)):
        n = case.params["n"]
        lt0 = chain_spectrum(case, random_point(case, 9).m).rows[0]
        # the even-multiplicity pairs
        assert np.array_equal(lt0[0:2 * (n // 2):2], lt0[1:2 * (n // 2):2])
        if n % 2:
            assert lt0[-1] == 0.5                # odd size pins the top value


def test_sp1_range():
    case = build_case("ci", n=1)
    _, ms = batch_points(case, 3, 0, 200)
    batch = chain_batch(case, ms)
    _, data, _ = batch_free_values(case, batch)
    assert data.min() >= -1e-9 and data.max() <= 2 + 1e-9
    assert batch_violations(case, batch) == 0


def test_sp2_simplex_inequalities(sp2):
    p = random_point(sp2, 17)
    cs = chain_spectrum(sp2, p.m)
    slope, offset = eigenvalue_map_constants(sp2)
    lam1 = np.sort(slope * cs.rows[0] + offset)
    lam2 = np.sort(slope * cs.rows[1] + offset)
    assert -1e-9 <= lam1[0] and lam1[-1] <= 2 + 1e-9
    assert lam1[0] - 1e-9 <= lam2[0] <= lam1[1] + 1e-9


def test_batch_matches_pointwise(all_cases):
    # a point is a batch of one: every per-point read is bitwise the batch row
    for case in all_cases:
        _, ms = batch_points(case, 8, 0, 5)
        batch = chain_batch(case, ms)
        labels, data, srt = batch_free_values(case, batch)
        margins = batch_margins(case, batch)
        assert labels == free_labels(case)
        for i in range(5):
            cs = chain_spectrum(case, ms[i])
            if cs.kind == "gt":
                for row, batch_row in zip(cs.rows, batch["rows"]):
                    assert np.array_equal(row, batch_row[i])
            else:
                assert np.array_equal(cs.a, batch["a"][i])
                assert np.array_equal(cs.b, batch["b"][i])
            assert np.array_equal(cs.free_values(), srt[i])
            assert np.array_equal(chain_free_vector(case, ms[i]), data[i])
            _, point_margins = polytope_membership(case, cs)
            assert point_margins == {k: v[i] for k, v in margins.items()}, case.name


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["aiii:k=1,n=3", "aiii:k=2,n=4", "ci:n=2", "ci:n=3",
                        "diii:n=3", "diii:n=4", "bdi:m=5", "bdi:m=6"]),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=12), st.data())
def test_chain_reads_independent_of_chunking(desc, seed, count, data):
    case = parse_case(desc)
    split = data.draw(st.integers(min_value=1, max_value=count - 1))
    _, ms = batch_points(case, seed, 0, count)
    whole = chain_batch(case, ms)
    parts = [chain_batch(case, ms[:split]), chain_batch(case, ms[split:])]
    free = [batch_free_values(case, b)[1:] for b in parts]
    for got, want in zip(zip(*free), batch_free_values(case, whole)[1:]):
        assert np.array_equal(np.concatenate(got), want)
    margins = [batch_margins(case, b) for b in parts]
    for key, want in batch_margins(case, whole).items():
        assert np.array_equal(np.concatenate([m[key] for m in margins]), want)
    for slack in (1e-9, -1e-3):
        with mock.patch.object(spectrum, "SLACK", slack):
            assert (batch_violations(case, whole)
                    == sum(batch_violations(case, b) for b in parts))


@pytest.mark.parametrize("descriptor", ["aiii:k=2,n=4", "ci:n=3", "diii:n=4",
                                        "bdi:m=7"])
def test_batch_violations_count_a_planted_violation(descriptor):
    # one sample of a chain batch moved past one interlacing bound by 1e-7,
    # 100 x SLACK: batch_violations at SLACK counts that
    # sample and no other
    case = parse_case(descriptor)
    _, ms = batch_points(case, 2024, 0, 20)
    batch = chain_batch(case, ms)
    assert batch_violations(case, batch) == 0
    if batch["kind"] == "gt":
        rows = batch["rows"]
        rows[1][7, 0] = rows[0][7, 0] - 1e-7      # below its lower bound
    else:
        # |b_1| past the cone's first drop 1 - |a_1|
        batch["b"][7, 0] = 1 - abs(batch["a"][7, 0]) + 1e-7
    margin = batch_margins(case, batch)["interlacing"][7]
    assert abs(margin - 1e-7) <= 1e-13, margin
    assert batch_violations(case, batch) == 1


def test_gap_regularity_flags_identity(sp2):
    # the identity coset is maximally degenerate
    cs = chain_spectrum(sp2, sp2.rho)
    assert gap_regularity(sp2, cs.batch)[0] <= 1e-12
    p = random_point(sp2, 23)
    cs = chain_spectrum(sp2, p.m)
    assert gap_regularity(sp2, cs.batch)[0] > 1e-3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=2, max_size=7))
def test_interlacing_of_hermitian_minors(diag):
    # Cauchy interlacing holds for any Hermitian matrix and its leading
    # principal minor; independent oracle for the interlace checker.
    n = len(diag)
    rng = np.random.default_rng(abs(hash(tuple(diag))) % 2**32)
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    a = q @ np.diag(diag).astype(complex) @ q.conj().T
    parent = np.linalg.eigvalsh(a)
    child = np.linalg.eigvalsh(a[: n - 1, : n - 1])
    margin = gt_interlace_check(parent, child)
    assert margin <= 1e-9, margin


def test_bdi_block_norm_matches_eigvalsh_oracle():
    # a_k = ||B||_F / sqrt 2 against the top eigenvalue of B^T B, on sampled
    # points and on points near a_k = 0: each Weyl image of rho (blocks of m
    # exactly zero) moved by exp(t X) for small t
    for amb in range(5, 10):
        case = build_case("bdi", m=amb)
        alg = case.alg
        _, ms = batch_points(case, 17, 0, 400)
        coefs = sample_coefficients(17, 400, 4, alg.dim)
        xs = np.tensordot(coefs, alg.basis, axes=1)
        near = []
        for p in torus_fixed_points(case):
            p = p.real
            for t in (0.0, 1e-9, 1e-6, 1e-3, 2e-3, 0.1):
                g = p @ expm_antihermitian(t * xs)
                near.append(g @ case.rho @ np.swapaxes(g, 1, 2))
        ms = np.concatenate([ms] + near)
        batch, oracle = chain_batch(case, ms), bdi_chain_eigvalsh(case, ms)
        assert np.abs(batch["a"] - oracle["a"]).max() <= 1e-13, amb
        assert np.array_equal(batch["b"], oracle["b"])
        assert batch_violations(case, batch) == batch_violations(case, oracle) == 0
        skips = [int((gap_regularity(case, b) <= GAP_THRESHOLD).sum())
                 for b in (batch, oracle)]
        assert skips[0] == skips[1] > 0, amb


def _weyl_elements(case, count=64):
    """Group elements onto Weyl images of rho: every torus-fixed point, or
    for a Grassmannian with more than `count` of them, the permutation
    matrices of `count` seeded random k-subsets."""
    k, n = case.params.get("k"), case.params["n"]
    if case.tag != "aiii" or math.comb(n, k) <= count:
        return np.stack(torus_fixed_points(case))
    rng = np.random.default_rng(11)
    return np.stack([np.eye(n, dtype=complex)[:, rng.permutation(n)]
                     for _ in range(count)])


@pytest.mark.parametrize("descriptor", GT_DESK + GT_SCALE + [
    "aiii:k=1,n=8", "aiii:k=7,n=8", "aiii:k=5,n=10", "aiii:k=8,n=16"])
def test_gt_rows_match_eigvalsh_oracle(descriptor):
    # every row read from its smallest exact problem against one eigvalsh
    # per leading minor: on sampled points, rho, the Weyl images of rho and
    # those moved by exp(t X) for small t, where the structural 0s and 1s
    # of the Grassmannian complement sit next to the free values
    case = parse_case(descriptor)
    _, ms = batch_points(case, 2024, 0, 300)
    gs = _weyl_elements(case)
    xs = case.alg.from_coefficients(
        sample_coefficients(5, 0, len(gs), case.alg.dim))
    near = [conjugate_rho(case, gs @ expm_antihermitian(t * xs))
            for t in (1e-9, 1e-6, 1e-3)]
    ms = np.concatenate([ms, case.rho[None], conjugate_rho(case, gs)] + near)
    batch, oracle = chain_batch(case, ms), gt_chain_eigvalsh(case, ms)
    for row, want in zip(batch["rows"], oracle["rows"]):
        assert row.shape == want.shape and row.dtype == np.float64
        assert np.abs(row - want).max() <= 1e-13, descriptor
    assert batch_violations(case, batch) == batch_violations(case, oracle) == 0
    assert np.array_equal(gap_regularity(case, batch) <= GAP_THRESHOLD,
                          gap_regularity(case, oracle) <= GAP_THRESHOLD)
    # a batch of one is bitwise its row in any stack
    flipped = chain_batch(case, ms[::-1])
    for i in (0, 1, 300, len(ms) - 1):
        one = chain_batch(case, ms[i:i + 1])
        for got, row, back in zip(one["rows"], batch["rows"], flipped["rows"]):
            assert np.array_equal(got[0], row[i])
            assert np.array_equal(got[0], back[len(ms) - 1 - i])


@pytest.mark.parametrize("descriptor", GT_DESK + GT_SCALE + [
    "aiii:k=1,n=4", "aiii:k=5,n=10"])
def test_small_gt_rows_take_no_eigensolver(descriptor, monkeypatch):
    # rows of size <= 2, of -i b0 or of the Grassmannian complement, come in
    # closed form; aiii:k=1,n=4 and aiii:k=2,n=4 read no eigvalsh at all
    case = parse_case(descriptor)
    _, ms = batch_points(case, 3, 0, 6)
    calls = record_calls(monkeypatch, np.linalg, "eigvalsh")["eigvalsh"]
    chain_batch(case, ms)
    assert all(args[0].shape[-1] > 2 for args in calls), descriptor
    if descriptor in ("aiii:k=1,n=4", "aiii:k=2,n=4"):
        assert not calls


def _refuse(*args, **kwargs):
    raise AssertionError("an eigensolver was called")


@pytest.mark.parametrize("descriptor", ["diii:n=3", "diii:n=4"])
def test_paired_diii_rows_take_no_eigensolver(descriptor, monkeypatch):
    # the top row, doubled by the pairing, comes from tr H and ||H - c||_F,
    # row 3 of diii:n=4 from a trace, the rest in closed form: against one
    # eigvalsh per leading minor on sampled points and exactly on the
    # torus-fixed points, with no eigensolver in chain_batch or
    # chain_spectrum
    case = parse_case(descriptor)
    _, ms = batch_points(case, 2024, 0, 300)
    fixed = conjugate_rho(case, np.stack(torus_fixed_points(case)))
    oracles = [gt_chain_eigvalsh(case, stack) for stack in (ms, fixed)]
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    batch, vertex = chain_batch(case, ms), chain_batch(case, fixed)
    for got, oracle in zip((batch, vertex), oracles):
        for row, want in zip(got["rows"], oracle["rows"]):
            assert np.abs(row - want).max() <= 1e-13, descriptor
        assert batch_violations(case, got) == batch_violations(case, oracle)
    for row, want in zip(vertex["rows"], oracles[1]["rows"]):
        assert np.array_equal(row, want), descriptor
    for i in (0, 17, 299):
        one = chain_batch(case, ms[i:i + 1])
        rows = chain_spectrum(case, ms[i]).rows
        for got, point, row in zip(one["rows"], rows, batch["rows"]):
            assert np.array_equal(got[0], row[i])
            assert np.array_equal(point, row[i])


@pytest.mark.parametrize("descriptor", ["diii:n=5", "diii:n=6", "diii:n=7"])
def test_diii_top_row_is_read_from_row_two(descriptor, monkeypatch):
    # the pairing pins entries 0, 2, 4, ... of row 2 to the doubled top
    # values, so the top row is those entries taken twice, then 1/2 at odd
    # n, and no eigvalsh sees the n x n block: against one eigvalsh per
    # leading minor on sampled points and exactly on the torus-fixed points
    case = parse_case(descriptor)
    n = case.params["n"]
    _, ms = batch_points(case, 2024, 0, 300)
    fixed = conjugate_rho(case, np.stack(torus_fixed_points(case)))
    oracles = [gt_chain_eigvalsh(case, stack) for stack in (ms, fixed)]
    calls = record_calls(monkeypatch, np.linalg, "eigvalsh")["eigvalsh"]
    batch, vertex = chain_batch(case, ms), chain_batch(case, fixed)
    # rows 2 down to size 3, once for each of the two stacks
    assert [args[0].shape[-1] for args in calls] == 2 * list(range(n - 1, 2, -1))
    for got in (batch, vertex):
        _assert_top_row_from_row_two(got["rows"], n)
    for got, oracle in zip((batch, vertex), oracles):
        for row, want in zip(got["rows"], oracle["rows"]):
            assert np.abs(row - want).max() <= 1e-13, descriptor
        assert batch_violations(case, got) == batch_violations(case, oracle)
    for row, want in zip(vertex["rows"], oracles[1]["rows"]):
        assert np.array_equal(row, want), descriptor
    for i in (0, 17, len(ms) - 1):
        one = chain_batch(case, ms[i:i + 1])
        rows = chain_spectrum(case, ms[i]).rows
        for got, point, row in zip(one["rows"], rows, batch["rows"]):
            assert np.array_equal(got[0], row[i])
            assert np.array_equal(point, row[i])


def _plant_nan(batch, i):
    """A nan in sample i of a chain batch: the last GT row, or b_1."""
    if batch["kind"] == "gt":
        batch["rows"][-1][i, 0] = np.nan
    else:
        batch["b"][i, 0] = np.nan
    return batch


@pytest.mark.parametrize("descriptor", ["ci:n=3", "aiii:k=2,n=4", "bdi:m=7"])
def test_non_finite_margins_are_violations(descriptor, monkeypatch):
    # a nan margin is not <= SLACK: batch_violations counts the sample, and
    # chain_spectrum raises on a point whose chain holds a nan
    case = parse_case(descriptor)
    _, ms = batch_points(case, 2024, 0, 10)
    batch = _plant_nan(chain_batch(case, ms), 4)
    assert batch_violations(case, batch) == 1
    clean = chain_batch(case, ms)
    values = batch_free_values(case, clean)[1]
    values[[2, 6], 0] = [np.inf, np.nan]
    assert batch_violations(case, clean) == 0
    assert batch_violations(case, clean, values=values) == 2
    if case.tag == "aiii":
        # no eigensolver on aiii:k=2,n=4: a nan entry of m reaches the rows
        bad = ms[4].copy()
        bad[0, 0] = complex(np.nan, np.nan)
        with pytest.raises(ConventionError):
            chain_spectrum(case, bad)
    extract = spectrum.chain_batch
    monkeypatch.setattr(spectrum, "chain_batch",
                        lambda case, ms: _plant_nan(extract(case, ms), 0))
    with pytest.raises(ConventionError):
        chain_spectrum(case, ms[4])
