"""Algebra construction, J / C_pm conventions, Iwasawa splitting, pairing."""

import numpy as np
import pytest

from pnorbit import ConventionError, build_algebra, c_minus, c_plus
from pnorbit import im_tr_pairing, iwasawa_project, j_operator

from helpers import cartan_element

ALGEBRAS = [("A", 2), ("A", 3), ("A", 4), ("C", 1), ("C", 2), ("C", 3),
            ("B", 2), ("B", 3), ("D", 2), ("D", 3), ("D", 4)]


def random_element(alg, rng, scale=1.0):
    return alg.from_coefficients(scale * rng.standard_normal(alg.dim))


def pairing(a, b):
    return -np.einsum("ij,ji->", a, b)


@pytest.mark.parametrize("family,n", ALGEBRAS)
def test_dimension_and_orthonormality(family, n):
    alg = build_algebra(family, n)
    expected = {"A": n * n - 1, "C": n * (2 * n + 1),
                "B": (2 * n + 1) * n, "D": n * (2 * n - 1)}[family]
    assert alg.dim == expected
    gram = -np.einsum("aij,bji->ab", alg.basis, alg.basis)
    assert np.abs(gram - np.eye(alg.dim)).max() <= 1e-12


@pytest.mark.parametrize("family,n", ALGEBRAS)
def test_basis_maps_match_einsum(family, n, rng):
    alg = build_algebra(family, n)
    basis = alg.basis
    coefs = rng.standard_normal((4, alg.dim))
    imag = rng.standard_normal((4, alg.dim))
    xs = (np.einsum("sa,aij->sij", coefs, basis)
          + 1j * np.einsum("sa,aij->sij", imag, basis))
    pairs = [
        (alg.coefficients(xs[0]), -np.einsum("aij,ji->a", basis, xs[0])),
        (alg.coefficients(xs), -np.einsum("aij,sji->sa", basis, xs)),
        (alg.from_coefficients(coefs[0]), np.einsum("a,aij->ij", coefs[0], basis)),
        (alg.from_coefficients(coefs), np.einsum("sa,aij->sij", coefs, basis)),
        (alg.j_apply_stack(coefs),
         np.einsum("...a,aij->...ij", coefs @ alg.jmat.T, basis)),
    ]
    for new, ref in pairs:
        assert new.shape == ref.shape
        assert np.abs(new - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_su2_dimension():
    assert build_algebra("A", 2).dim == 3


@pytest.mark.parametrize("family,n", ALGEBRAS)
def test_basis_family_constraints(family, n):
    alg = build_algebra(family, n)
    for x in alg.basis:
        assert np.abs(x + x.conj().T).max() <= 1e-14
        if family == "A":
            assert abs(np.trace(x)) <= 1e-14
        elif family in ("B", "D"):
            assert np.abs(x.imag).max() == 0.0
            assert np.abs(x + x.T).max() <= 1e-14
        else:  # C: [[A, B], [-B^dag, -A^T]] with A = -A^dag, B = B^T
            half = alg.size // 2
            a, b = x[:half, :half], x[:half, half:]
            assert np.abs(x[half:, half:] + a.T).max() <= 1e-14
            assert np.abs(x[half:, :half] + b.conj().T).max() <= 1e-14
            assert np.abs(b - b.T).max() <= 1e-14


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("B", 2), ("D", 3)])
def test_closure(family, n, rng):
    alg = build_algebra(family, n)
    for _ in range(6):
        i, j = rng.integers(alg.dim, size=2)
        comm = alg.basis[i] @ alg.basis[j] - alg.basis[j] @ alg.basis[i]
        assert alg.membership_residual(comm) <= 1e-12


def test_d_family_cartan_is_split_so2_blocks():
    alg = build_algebra("D", 3)
    h = cartan_element(alg, [1.0, 2.0, 3.0])
    expect = np.zeros((6, 6))
    for j, v in enumerate([1.0, 2.0, 3.0]):
        expect[j, 3 + j] = v / np.sqrt(2)
        expect[3 + j, j] = -v / np.sqrt(2)
    assert np.abs(h - expect).max() <= 1e-14


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("D", 3)])
def test_pairing_ad_invariance(family, n, rng):
    alg = build_algebra(family, n)
    for _ in range(5):
        z, a, b = (random_element(alg, rng) for _ in range(3))
        lhs = pairing(z @ a - a @ z, b) + pairing(a, z @ b - b @ z)
        assert abs(lhs) <= 1e-11


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("B", 2), ("D", 3)])
def test_j_operator_structure(family, n, rng):
    alg = build_algebra(family, n)
    # J kills the Cartan
    h = cartan_element(alg, rng.standard_normal(len(alg.cartan_indices)))
    assert np.abs(j_operator(alg, h)).max() <= 1e-12
    # J^2 = -1 on the pairing-orthogonal complement of t
    x = random_element(alg, rng)
    for idx in alg.cartan_indices:
        x = x - pairing(x, alg.basis[idx]).real * alg.basis[idx]
    assert np.abs(alg.j_apply(alg.j_apply(x)) + x).max() <= 1e-11
    # antisymmetry of J under the pairing
    y = random_element(alg, rng)
    assert abs(pairing(alg.j_apply(x), y) + pairing(x, alg.j_apply(y))) <= 1e-11


def test_j_operator_rejects_non_member():
    alg = build_algebra("A", 2)
    with pytest.raises(ConventionError):
        j_operator(alg, np.diag([1.0, 1.0]))  # not anti-Hermitian traceless


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_c_plus_matches_triangular_formula(n, rng):
    # spectral C_+ against the explicit entrywise pattern on su(n)
    alg = build_algebra("A", n)
    x = random_element(alg, rng)
    cp = c_plus(alg, x)
    expect = np.zeros((n, n), complex)
    for r in range(n):
        expect[r, r] = 1j * x[r, r]
        for s in range(r + 1, n):
            expect[r, s] = 2j * x[r, s]
    assert np.abs(cp - expect).max() <= 1e-12


def test_c_plus_minus_sum_and_cartan(rng):
    alg = build_algebra("C", 2)
    x = random_element(alg, rng)
    assert np.abs(c_plus(alg, x) + c_minus(alg, x) - 2j * x).max() <= 1e-13
    h = cartan_element(alg, rng.standard_normal(2))
    assert np.abs(c_plus(alg, h) - 1j * h).max() <= 1e-13
    assert np.abs(c_minus(alg, h) - 1j * h).max() <= 1e-13


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("D", 3)])
def test_c_plus_dagger_lands_in_b_minus(family, n, rng):
    alg = build_algebra(family, n)
    x = random_element(alg, rng)
    z = c_plus(alg, x).conj().T
    g_part, _ = iwasawa_project(alg, z, side="-")
    assert np.abs(g_part).max() <= 1e-10


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("B", 2), ("D", 3)])
def test_iwasawa_roundtrip(family, n, rng):
    alg = build_algebra(family, n)
    # member of g goes to (Z, 0)
    x0 = random_element(alg, rng)
    xp, yp = iwasawa_project(alg, x0)
    assert np.abs(xp - x0).max() <= 1e-12 and np.abs(yp).max() <= 1e-12
    # pure b_+ element goes to (0, Y0)
    y0 = random_element(alg, rng)
    xp, yp = iwasawa_project(alg, 1j * y0 + alg.j_apply(y0))
    assert np.abs(xp).max() <= 1e-12 and np.abs(yp - y0).max() <= 1e-12
    # random g_C element reassembles, both sides
    z = random_element(alg, rng) + 1j * random_element(alg, rng)
    for side in "+-":
        xp, yp = iwasawa_project(alg, z, side=side)
        cy = 1j * yp + (1 if side == "+" else -1) * alg.j_apply(yp)
        assert np.abs(xp + cy - z).max() <= 1e-12
        assert alg.membership_residual(xp) <= 1e-11
        # idempotence on the g part
        xp2, yp2 = iwasawa_project(alg, xp, side=side)
        assert np.abs(xp2 - xp).max() <= 1e-12 and np.abs(yp2).max() <= 1e-12


def test_im_tr_pairing_lagrangian_and_example(rng):
    alg = build_algebra("A", 2)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert abs(im_tr_pairing(a, b)) <= 1e-12
    assert abs(im_tr_pairing(c_plus(alg, a), c_plus(alg, b))) <= 1e-11
    # diag(i,-i) in su(2) against diag(1,-1) in b_+
    val = im_tr_pairing(np.diag([1j, -1j]), np.diag([1.0, -1.0]))
    assert abs(val - 2.0) <= 1e-15
    with pytest.raises(ConventionError):
        im_tr_pairing(np.eye(2), np.eye(3))


def test_unsupported_family():
    with pytest.raises(ConventionError):
        build_algebra("E", 6)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_iwasawa_reassembly_property(entropy):
    alg = build_algebra("A", 3)
    gen = np.random.default_rng(entropy)
    z = (alg.from_coefficients(gen.standard_normal(alg.dim))
         + 1j * alg.from_coefficients(gen.standard_normal(alg.dim)))
    x, y = iwasawa_project(alg, z)
    assert np.abs(x + 1j * y + alg.j_apply(y) - z).max() <= 1e-12
    assert alg.membership_residual(x) <= 1e-11
    assert alg.membership_residual(y) <= 1e-11
