"""Numerical Poisson-Nijenhuis structures on classical adjoint orbits.

The package realizes the compatible pair (Bruhat-Poisson, inverse KKS) on
the compact hermitian symmetric spaces of the four classical families,
computes the Nijenhuis spectrum two independent ways (generalized pencil
eigenvalues vs. chain-of-subalgebras formulas), and certifies the
identities tying them together.
"""

from .errors import (CalibrationError, ConventionError, NumericalError,
                     UsageError)
from .hermsym import (Case, OrbitPoint, build_case, parse_case, moment,
                      idempotents, random_point)
from .liealg import (LieAlgebra, build_algebra, c_minus, c_plus,
                     im_tr_pairing, iwasawa_project, j_operator)
from .poisson import (BracketPair, bruhat_matrix, build_pair, kks_matrix,
                      lenard_check, nijenhuis_apply, nijenhuis_formula,
                      pencil_spectrum)
from .spectrum import (ChainSpectrum, chain_spectrum,
                       eigenvalue_map_constants, gt_interlace_check,
                       polytope_membership)
from .spinrep import SpinRepresentation, gamma_matrices, spin_basis
from .verify import (VerificationReport, calibrate,
                     measure_diii_normalization, run_suite, vertex_probe)

__version__ = "0.1.0"

__all__ = [
    "BracketPair", "CalibrationError", "Case", "ChainSpectrum",
    "ConventionError", "LieAlgebra", "NumericalError", "OrbitPoint",
    "SpinRepresentation", "UsageError", "VerificationReport",
    "build_algebra", "build_case", "build_pair", "bruhat_matrix",
    "c_minus", "c_plus", "calibrate", "chain_spectrum",
    "eigenvalue_map_constants", "gamma_matrices",
    "gt_interlace_check", "idempotents", "im_tr_pairing",
    "iwasawa_project", "j_operator", "kks_matrix", "lenard_check",
    "measure_diii_normalization", "moment", "nijenhuis_apply",
    "nijenhuis_formula", "parse_case", "pencil_spectrum",
    "polytope_membership", "random_point", "run_suite", "spin_basis",
    "vertex_probe",
]
