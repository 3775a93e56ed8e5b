"""Reference algebra that only the tests use, kept out of the package.

Each function is a direct, slow route to a fact the package computes
another way, so the tests can compare the two.
"""

import numpy as np

from perfectnt.codes import CodeSpec, all_codewords
from perfectnt.matrix import FieldMatrix, kernel_basis, rref
from perfectnt.poly import FieldPoly


def poly_gcd(a: FieldPoly, b: FieldPoly) -> FieldPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.scaled(a.field.inv(a.coeffs[-1]))


def kernel_basis_two_eliminations(m: FieldMatrix) -> FieldMatrix:
    """The RREF of the null space of m: the free-column basis of rref(m),
    itself put in RREF by a second elimination."""
    reduced, rk, pivots = rref(m)
    free = np.delete(np.arange(m.cols), list(pivots))
    if not free.size:
        return FieldMatrix.zeros(m.field, 0, m.cols)
    basis = np.zeros((free.size, m.cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, list(pivots)] = -reduced.data[:rk, free].T % m.field.p
    canonical, brank, _ = rref(FieldMatrix(m.field, basis))
    assert brank == free.size  # the free-column basis is always independent
    return canonical


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


def python_product(a, b, p):
    """(a @ b) % p with Python ints, for 1-D or 2-D operands."""
    rows = a.tolist() if a.ndim == 2 else [a.tolist()]
    cols = b.T.tolist() if b.ndim == 2 else [b.tolist()]
    out = [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in rows]
    if b.ndim == 1:
        out = [row[0] for row in out]
    return out if a.ndim == 2 else out[0]


def holds_no_float_array(m: FieldMatrix) -> bool:
    """No slot of `m` holds a float array: a FieldMatrix keeps int64 data only."""
    values = (getattr(m, name) for name in FieldMatrix.__slots__)
    return not any(isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in values)
