"""Contract tests for the dense linear-algebra kernel.

The library's matrix exponential is expm_antihermitian; scipy's expm is
the independent oracle.
"""

import subprocess
import sys

import numpy as np
import scipy.linalg

from pnorbit.hermsym import random_point
from pnorbit.numkernel import expm_antihermitian
from pnorbit.poisson import directional_derivatives
from pnorbit.spectrum import chain_free_vector


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_antihermitian(rng, n):
    return 1j * random_hermitian(rng, n)


def test_matrix_exp_identity_and_rotation():
    assert np.abs(expm_antihermitian(np.zeros((4, 4))) - np.eye(4)).max() < 1e-15
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


def test_fd_gradient_eigenvalue_family_richardson(sp2):
    # fd flow derivatives of the chain eigenvalues at a gap-regular point;
    # the oracle is h-refinement (Richardson) extrapolation of the same stencil
    p = random_point(sp2, 23)

    def grad(h):
        return directional_derivatives(
            sp2, p.g, lambda gs, ms: chain_free_vector(sp2, ms), h)

    richardson = (4 * grad(5e-4) - grad(1e-3)) / 3
    assert np.abs(grad(1e-5) - richardson).max() <= 1e-6


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package must not load it
    code = "import sys, pnorbit, pnorbit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
