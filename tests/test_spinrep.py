"""Gamma matrices, word ordering and the spin representation."""

import numpy as np
import pytest

from pnorbit import ConventionError, build_case, gamma_matrices
from pnorbit.spinrep import SpinRepresentation

from helpers import ladder_gammas


def test_word_order():
    words = SpinRepresentation(7).words
    assert words[0] == ()
    assert len(words) == 8
    assert len(set(words)) == 8
    # compare largest letters first
    assert words.index((2,)) < words.index((3,))
    assert words.index((3,)) < words.index((1, 3))
    assert words.index((1, 2)) < words.index((3,))
    # the first 2^(N-1) words avoid the last letter entirely
    assert all(3 not in w for w in words[:4])
    assert all(3 in w for w in words[4:])


def test_word_order_is_binary_counting():
    words = SpinRepresentation(8).words
    for j, w in enumerate(words):
        assert sum(2 ** (i - 1) for i in w) == j


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("n_letters", range(1, 7))
def test_kronecker_gammas_equal_the_ladder_construction(n_letters, odd):
    words, ladder = ladder_gammas(n_letters, odd)
    gammas = gamma_matrices(n_letters, odd)
    # the word basis depends on the letter count alone
    assert SpinRepresentation(2 * n_letters + 1).words == words
    assert gammas.shape == (2 * n_letters + odd, 2 ** n_letters, 2 ** n_letters)
    assert gammas.tobytes() == np.array(ladder).tobytes()


def test_n1_gamma_product():
    gammas = gamma_matrices(1)
    prod = gammas[0] @ gammas[1]
    # i(1 - 2 n_hat): +i on the empty word, -i on the one-letter word
    assert np.abs(prod - np.diag([1j, -1j])).max() == 0.0


@pytest.mark.parametrize("n_letters,odd", [(1, False), (2, False), (2, True),
                                           (3, False), (3, True)])
def test_clifford_relations(n_letters, odd):
    gammas = gamma_matrices(n_letters, odd)
    eye = np.eye(2 ** n_letters)
    for a in range(len(gammas)):
        for b in range(len(gammas)):
            anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            assert np.abs(anti - 2.0 * (a == b) * eye).max() <= 1e-13


def test_parity_gamma():
    gammas = gamma_matrices(2, odd=True)
    expect = np.diag([(-1.0) ** len(w) for w in SpinRepresentation(5).words])
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
    nl = rep.n_letters
    target = 1j * (rep.gamma_bar_gamma(nl) - 0.5 * np.eye(rep.dim))
    assert np.abs(rep(case.rho.real) - target).max() <= 1e-12


def test_spin_weights(rng):
    # S of a Cartan element has eigenvalues (i/2) sum of +-theta_j
    m = 7
    rep = SpinRepresentation(m)
    nl = rep.n_letters
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


@pytest.mark.parametrize("m", [5, 6, 7, 9])
def test_stacked_spin_rep_matches_the_pair_sum(m, rng):
    # S(X) = sum_{a<b} X_ab (1/4)[G_a, G_b], one pair at a time, per row
    case = build_case("bdi", m=m)
    rep = SpinRepresentation(m)
    _, g = ladder_gammas(m // 2, bool(m % 2))
    xs = case.alg.from_coefficients(rng.standard_normal((20, case.alg.dim))).real
    got = rep(xs)
    assert got.shape == (20, rep.dim, rep.dim)
    for x, s in zip(xs, got):
        want = sum(x[a, b] * (g[a] @ g[b] - g[b] @ g[a]) / 4
                   for a in range(m) for b in range(a + 1, m))
        assert np.abs(s - want).max() <= 1e-14
        assert np.abs(rep(x) - s).max() <= 1e-14


def test_spin_rejects_bad_input(rng):
    rep = SpinRepresentation(5)
    with pytest.raises(ConventionError):
        rep(np.eye(5))
    with pytest.raises(ConventionError):
        rep(np.zeros((4, 4)))
    with pytest.raises(ConventionError):
        rep(np.zeros(5))
    # a stack is checked row by row, each at its own scale: one bad row
    # fails the call even beside a row large enough to hide it
    xs = rng.standard_normal((4, 5, 5))
    xs = xs - np.swapaxes(xs, 1, 2)
    xs[0] *= 1e8
    rep(xs)
    xs[2, 0, 1] += 1e-3
    with pytest.raises(ConventionError):
        rep(xs)

