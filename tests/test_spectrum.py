"""Chain eigenvalues, free coordinates, interlacing, polytopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnorbit import (ConventionError, build_case, chain_spectrum,
                     gt_interlace_check, parse_case, polytope_membership)
from pnorbit.hermsym import batch_points, random_point
from pnorbit.spectrum import (batch_free_values, batch_margins,
                              batch_violations, chain_batch, chain_free_vector,
                              free_labels, free_masks, gap_regularity,
                              eigenvalue_map_constants, top_row_constants)


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


def test_bdi_a0_and_aN(bdi5):
    # a_0 = 1 enters through the cone; a_N = 0 because the last block is 1x1
    p = random_point(bdi5, 21)
    cs = chain_spectrum(bdi5, p.m)
    assert np.abs(cs.a).max() <= 1.0 + 1e-9
    assert len(cs.a) == 1 and len(cs.b) == 2     # so(5): one (a,b) pair + b_2


def test_gt_interlace_check_examples():
    ok, _ = gt_interlace_check([-0.5, 0.5], [0.0])
    assert ok
    ok, margin = gt_interlace_check([-0.5, 0.5], [0.7])
    assert not ok and margin > 0.19
    ok, margin = gt_interlace_check([0.3, 0.3], [0.3])
    assert ok and abs(margin) <= 1e-15
    with pytest.raises(ConventionError):
        gt_interlace_check([1.0, 2.0], [1.0, 2.0])
    # leading axes are samples
    ok, margin = gt_interlace_check([[-0.5, 0.5], [-0.5, 0.5]], [[0.0], [0.7]])
    assert ok.tolist() == [True, False]
    assert margin[0] == -0.5 and abs(margin[1] - 0.2) <= 1e-15


def test_chain_rows_interlace(all_cases):
    for case in all_cases:
        p = random_point(case, 5)
        cs = chain_spectrum(case, p.m)    # validates interlacing internally
        ok, margins = polytope_membership(case, cs)
        assert ok, (case.name, margins)


def test_diii_pairing_and_pinned_value(so6u3):
    p = random_point(so6u3, 9)
    cs = chain_spectrum(so6u3, p.m)
    lt0 = cs.rows[0]
    assert abs(lt0[0] - lt0[1]) <= 1e-8          # the even-multiplicity pair
    assert abs(lt0[2] - 0.5) <= 1e-10            # odd size pins the top value


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
        assert (batch_violations(case, whole, slack)
                == sum(batch_violations(case, b, slack) for b in parts))


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
    ok, margin = gt_interlace_check(parent, child, slack=1e-9)
    assert ok, margin
