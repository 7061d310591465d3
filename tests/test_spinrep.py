"""Gamma matrices, word ordering and the spin representation."""

import numpy as np
import pytest

from pnorbit import ConventionError, build_case, gamma_matrices, spin_basis
from pnorbit.spinrep import SpinRepresentation


def test_word_order():
    basis = spin_basis(3)
    assert basis.words[0] == ()
    assert len(basis.words) == 8
    assert len(set(basis.words)) == 8
    # compare largest letters first
    assert basis.words.index((2,)) < basis.words.index((3,))
    assert basis.words.index((3,)) < basis.words.index((1, 3))
    assert basis.words.index((1, 2)) < basis.words.index((3,))
    # the first 2^(N-1) words avoid the last letter entirely
    assert all(3 not in w for w in basis.words[:4])
    assert all(3 in w for w in basis.words[4:])


def test_n1_gamma_product():
    _, gammas = gamma_matrices(1)
    prod = gammas[0] @ gammas[1]
    # i(1 - 2 n_hat): +i on the empty word, -i on the one-letter word
    assert np.abs(prod - np.diag([1j, -1j])).max() == 0.0


@pytest.mark.parametrize("n_letters,odd", [(1, False), (2, False), (2, True),
                                           (3, False), (3, True)])
def test_clifford_relations(n_letters, odd):
    basis, gammas = gamma_matrices(n_letters, odd)
    eye = np.eye(basis.dim)
    for a in range(len(gammas)):
        for b in range(len(gammas)):
            anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            assert np.abs(anti - 2.0 * (a == b) * eye).max() <= 1e-13


def test_parity_gamma():
    basis, gammas = gamma_matrices(2, odd=True)
    expect = np.diag([(-1.0) ** len(w) for w in basis.words])
    assert np.abs(gammas[0] - expect).max() == 0.0


@pytest.mark.parametrize("m", [5, 6, 7])
def test_spin_rep_homomorphism_and_antihermiticity(m, rng):
    case = build_case("bdi", m=m)
    rep = SpinRepresentation(m)
    for _ in range(20):
        x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim)).real
        y = case.alg.from_coefficients(rng.standard_normal(case.alg.dim)).real
        lhs = rep(x @ y - y @ x)
        rhs = rep(x) @ rep(y) - rep(y) @ rep(x)
        assert np.abs(lhs - rhs).max() <= 1e-10
        sx = rep(x)
        assert np.abs(sx + sx.conj().T).max() <= 1e-13


@pytest.mark.parametrize("m", [5, 6])
def test_spin_rho_last_rotation(m):
    case = build_case("bdi", m=m)
    rep = SpinRepresentation(m)
    nl = rep.basis.n_letters
    target = 1j * (rep.gamma_bar_gamma(nl) - 0.5 * np.eye(rep.dim))
    assert np.abs(rep(case.rho.real) - target).max() <= 1e-12


def test_spin_weights(rng):
    # S of a Cartan element has eigenvalues (i/2) sum of +-theta_j
    m = 7
    rep = SpinRepresentation(m)
    nl = rep.basis.n_letters
    thetas = rng.standard_normal(nl)
    h = np.zeros((m, m))
    for j in range(nl):
        r0 = m % 2 + 2 * j
        h[r0, r0 + 1], h[r0 + 1, r0] = thetas[j], -thetas[j]
    got = np.sort(np.linalg.eigvalsh(-1j * rep(h)))
    want = np.sort([0.5 * sum((1 if b else -1) * t
                              for b, t in zip(bits, thetas))
                    for bits in np.ndindex(*([2] * nl))])
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("m", [5, 6])
def test_spin_triangularity_of_c_plus(m, rng):
    case = build_case("bdi", m=m)
    rep = SpinRepresentation(m)
    for _ in range(20):
        x = case.alg.from_coefficients(rng.standard_normal(case.alg.dim))
        cp = 1j * x + case.alg.j_apply(x)
        s = rep(cp.real) + 1j * rep(cp.imag)
        assert np.abs(np.tril(s, -1)).max() <= 1e-10


def test_spin_rejects_bad_input():
    rep = SpinRepresentation(5)
    with pytest.raises(ConventionError):
        rep(np.eye(5))
    with pytest.raises(ConventionError):
        rep(np.zeros((4, 4)))

