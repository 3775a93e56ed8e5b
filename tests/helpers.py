"""Reference algebra that only the tests use, kept out of the package.

Each function is a direct, slow route to a fact the package computes
another way, so the tests can compare the two.
"""

import numpy as np

from perfectnt.codes import CodeSpec, all_codewords
from perfectnt.matrix import FieldMatrix, kernel_basis
from perfectnt.poly import FieldPoly


def poly_gcd(a: FieldPoly, b: FieldPoly) -> FieldPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def generator_from_parity(spec: CodeSpec) -> FieldMatrix:
    """Canonical k x N generator: the RREF kernel basis of H."""
    basis = kernel_basis(spec.H)
    if basis.rows != spec.k:
        raise ValueError(
            f"{spec.label}: kernel dimension {basis.rows} does not match k = {spec.k}"
        )
    return basis


def minimum_distance(spec: CodeSpec) -> int:
    """Exhaustive minimum weight over all nonzero codewords."""
    if spec.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    weights = np.count_nonzero(all_codewords(spec), axis=1)
    return int(weights[weights > 0].min())
