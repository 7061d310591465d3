"""Contract tests for the dense linear-algebra kernel.

The library's matrix exponential is expm_antihermitian; scipy's expm is
the independent oracle.
"""

import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import pnorbit
from pnorbit import NumericalError, numkernel
from pnorbit.hermsym import (batch_points, parse_case, random_point,
                             stabilizer_elements)
from pnorbit.numkernel import expm_antihermitian
from pnorbit.poisson import directional_derivatives
from pnorbit.spectrum import chain_batch, chain_free_vector


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_antihermitian(rng, n):
    return 1j * random_hermitian(rng, n)


def antisymmetric_stack(rng, count, n, norms):
    """count real antisymmetric n x n matrices with the given 1-norms."""
    a = rng.standard_normal((count, n, n))
    a = a - np.swapaxes(a, 1, 2)
    return a * (np.asarray(norms) / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]


def antihermitian_stack(rng, count, n, norms):
    """count complex anti-Hermitian n x n matrices with the given 1-norms."""
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    a = a - np.conj(np.swapaxes(a, 1, 2))
    return a * (np.asarray(norms) / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]


def test_matrix_exp_identity_and_rotation():
    # the zero matrix maps to exactly the identity, alone and in a stack
    assert np.array_equal(expm_antihermitian(np.zeros((4, 4))), np.eye(4))
    assert np.array_equal(expm_antihermitian(np.zeros((3, 4, 4))),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.abs(expm_antihermitian(np.pi / 2 * j2) - j2).max() < 1e-14


def test_matrix_exp_inverse_and_unitarity(rng):
    x = random_antihermitian(rng, 5)
    e = expm_antihermitian(x) @ expm_antihermitian(-x)
    assert np.abs(e - np.eye(5)).max() <= 1e-12
    u = expm_antihermitian(x)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-12


def test_matrix_exp_determinant_trace(rng):
    x = 0.5 * random_antihermitian(rng, 4)
    assert abs(np.linalg.det(expm_antihermitian(x)) - np.exp(np.trace(x))) <= 1e-10


def test_matrix_exp_commuting_sum(rng):
    a = random_antihermitian(rng, 4)
    x, y = 0.3 * a, a @ a @ a * 0.1  # odd polynomials in a commute with a
    lhs = expm_antihermitian(x) @ expm_antihermitian(y)
    assert np.abs(lhs - expm_antihermitian(x + y)).max() <= 1e-11


def test_expm_antihermitian_matches_matrix_exp(rng):
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = x - x.conj().T
    assert np.abs(expm_antihermitian(x) - scipy.linalg.expm(x)).max() < 1e-12
    # a stack is exponentiated matrix by matrix
    stack = np.stack([x, 0.5 * x, random_antihermitian(rng, 6)])
    for got, xi in zip(expm_antihermitian(stack), stack):
        assert np.abs(got - scipy.linalg.expm(xi)).max() < 1e-12


def test_real_branch_matches_matrix_exp_and_complex_branch(rng):
    # real antisymmetric input stays real: scipy's expm and the complex
    # branch on the same matrices agree with it, and g^T g = 1.  Entries are
    # scaled like the sampler's so(n) draws; the last stack has degenerate
    # rotation angles and a zero one
    stacks = []
    for n in (2, 3, 6, 7, 12):
        a = rng.standard_normal((20, n, n)) / np.sqrt(2)
        stacks.append(a - np.swapaxes(a, 1, 2))
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    blocks = np.kron(np.diag([0.7, 0.7, 0.0]), j2)
    stacks.append(np.stack([blocks, 2.5 * blocks, np.zeros((6, 6))]))
    for x in stacks:
        g = expm_antihermitian(x)
        assert g.dtype == np.float64
        assert np.abs(g - expm_antihermitian(x.astype(complex))).max() <= 1e-13
        for gi, xi in zip(g, x):
            assert np.abs(gi - scipy.linalg.expm(xi)).max() <= 1e-13
        eye = np.eye(x.shape[-1])
        assert np.abs(np.swapaxes(g, -1, -2) @ g - eye).max() <= 1e-13


def test_real_branch_matches_scipy_up_to_large_norms(rng):
    # ||X||_1 from 1e-6 to 1e3, where the real branch squares 11 times; the
    # gap to scipy's expm grows with the norm (the 2x2 rotations show it is
    # scipy's), so it is bounded relative to max(1, ||X||_1)
    for n in (2, 3, 6, 8, 12):
        norms = np.logspace(-6, 3, 28)
        x = antisymmetric_stack(rng, len(norms), n, norms)
        g = expm_antihermitian(x)
        for gi, xi, nrm in zip(g, x, norms):
            gap = np.abs(gi - scipy.linalg.expm(xi)).max()
            assert gap <= 1e-14 * max(1.0, nrm), (n, nrm)
        eye = np.eye(n)
        assert np.abs(np.swapaxes(g, -1, -2) @ g - eye).max() <= 1e-12
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for theta in (0.3, 10.0, 1e3):
        rot = np.array([[np.cos(theta), np.sin(theta)],
                        [-np.sin(theta), np.cos(theta)]])
        assert np.abs(expm_antihermitian(theta * j2) - rot).max() <= 1e-13


def test_real_branch_rows_are_batches_of_one(rng):
    # every row takes its own scaling, so a row of a mixed-norm stack is
    # bitwise the same matrix alone, in a batch of one or in a sub-stack,
    # whatever the order of its stack-mates
    norms = [7.0, 0.0, 1e3, 1e-6, 0.4, 0.5, 1.0, 30.0, 2.0, 1e-6, 7.0]
    for n in (3, 8):
        x = antisymmetric_stack(rng, len(norms), n, norms)
        g = expm_antihermitian(x)
        for i in range(len(x)):
            assert np.array_equal(g[i], expm_antihermitian(x[i]))
            assert np.array_equal(g[i], expm_antihermitian(x[i:i + 1])[0])
        assert np.array_equal(g[::-1], expm_antihermitian(x[::-1]))
        assert np.array_equal(g[3:8], expm_antihermitian(x[3:8]))
        assert np.array_equal(g.reshape(1, 11, n, n),
                              expm_antihermitian(x.reshape(1, 11, n, n)))


def test_complex_branch_matches_scipy_up_to_large_norms(rng):
    # complex anti-Hermitian X = A + iB goes through the real operator
    # [[A, -B], [B, A]]; over ||X||_1 from 1e-6 to 1e3 the result stays
    # within 1e-14 max(1, ||X||_1) of scipy's expm and unitary to 1e-12,
    # up to N = 22
    for n in (1, 2, 3, 4, 6, 11, 16, 22):
        norms = np.logspace(-6, 3, 28)
        x = antihermitian_stack(rng, len(norms), n, norms)
        g = expm_antihermitian(x)
        assert g.dtype == np.complex128
        for gi, xi, nrm in zip(g, x, norms):
            gap = np.abs(gi - scipy.linalg.expm(xi)).max()
            assert gap <= 1e-14 * max(1.0, nrm), (n, nrm)
        eye = np.eye(n)
        assert np.abs(np.conj(np.swapaxes(g, -1, -2)) @ g - eye).max() <= 1e-12
    for theta in (0.3, 10.0, 1e3):
        phase = expm_antihermitian(np.array([[1j * theta]]))
        assert abs(phase[0, 0] - np.exp(1j * theta)) <= 1e-13


def test_complex_branch_rows_are_batches_of_one(rng):
    # as on the real branch: each row takes its own scaling from its own
    # operator, so a row of a mixed-norm complex stack is bitwise the same
    # matrix alone, in a batch of one or in any sub-stack
    norms = [7.0, 0.0, 1e3, 1e-6, 0.4, 0.5, 1.0, 30.0, 2.0, 1e-6, 7.0]
    for n in (2, 4, 6):
        x = antihermitian_stack(rng, len(norms), n, norms)
        g = expm_antihermitian(x)
        for i in range(len(x)):
            assert np.array_equal(g[i], expm_antihermitian(x[i]))
            assert np.array_equal(g[i], expm_antihermitian(x[i:i + 1])[0])
        assert np.array_equal(g[::-1], expm_antihermitian(x[::-1]))
        assert np.array_equal(g[3:8], expm_antihermitian(x[3:8]))
        assert np.array_equal(g.reshape(1, 11, n, n),
                              expm_antihermitian(x.reshape(1, 11, n, n)))


def test_no_family_samples_with_an_eigensolver(monkeypatch, rng):
    # every family samples (batch_points, stabilizer_elements, the fd flow
    # data, formed here for the freshly parsed cases) without
    # np.linalg.eigh/eigvalsh, and the bdi chain is read without them
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called")

    cases = [parse_case(d) for d in ("aiii:k=2,n=4", "ci:n=3", "diii:n=3",
                                     "diii:n=4", "bdi:m=5", "bdi:m=7")]
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    x = antisymmetric_stack(rng, 4, 6, [0.0, 0.1, 5.0, 1e3])
    assert expm_antihermitian(x).dtype == np.float64
    xc = antihermitian_stack(rng, 4, 6, [0.0, 0.1, 5.0, 1e3])
    assert expm_antihermitian(xc).dtype == np.complex128
    for case in cases:
        g, m = batch_points(case, 3, 0, 6)
        stabilizer_elements(case, 3, 0, 6)
        directional_derivatives(case, g[0], lambda flow: flow.nr)
        if case.tag == "bdi":
            chain_batch(case, m)


def test_non_finite_input_raises_before_any_work(monkeypatch):
    # NaN or inf anywhere in a real or complex stack raises NumericalError,
    # not numpy's LinAlgError, before the kernel starts
    def forbidden(*args, **kwargs):
        raise AssertionError("work done on non-finite input")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(numkernel, "_expm_columns", forbidden)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3, 4, 4))
        x[1, 0, 2], x[1, 2, 0] = bad, -bad
        xc = np.zeros((3, 4, 4), complex)
        xc[2, 1, 1] = complex(0.0, bad)
        for arr in (x, x[1], xc, xc[2]):
            with pytest.raises(NumericalError, match="non-finite"):
                expm_antihermitian(arr)


def test_fd_gradient_eigenvalue_family_richardson(sp2):
    # fd flow derivatives of the chain eigenvalues at a gap-regular point;
    # the oracle is h-refinement (Richardson) extrapolation of the same stencil
    p = random_point(sp2, 23)

    def grad(h):
        return directional_derivatives(
            sp2, p.g,
            lambda flow: chain_free_vector(sp2, flow.m), h)

    richardson = (4 * grad(5e-4) - grad(1e-3)) / 3
    assert np.abs(grad(1e-5) - richardson).max() <= 1e-6


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package must not load it
    code = "import sys, pnorbit, pnorbit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # a stale entry in pnorbit.__all__ only fails on "from pnorbit import *"
    assert [n for n in pnorbit.__all__ if not hasattr(pnorbit, n)] == []
