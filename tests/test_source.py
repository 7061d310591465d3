"""Rules on the library source itself."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pnorbit"


def test_no_einsum_in_library():
    # every contraction in the library is a matrix product; einsum forms
    # live on only as oracles in the tests
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "np.einsum(" in line]
    assert hits == []


def test_no_matrix_inverse_in_library():
    # K^+ = -K on a hermitian symmetric space (K0^2 = -T0 T0^T, certified
    # once per case), and the pencil is read in the base tangent frame: no
    # inverse, pseudo-inverse, solve or SVD is formed
    call = re.compile(r"\b(inv|pinv|solve|svd)\(")
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if call.search(line)]
    assert hits == []
