"""Reference algebra that only the tests use, kept out of the package.

Each function is a direct, slow route to a fact the package computes
another way, so the tests can compare the two.
"""

from itertools import product

import numpy as np

from perfectnt.codes import CodeSpec, all_codewords
from perfectnt.gf import ModulusMismatchError
from perfectnt.matrix import FieldMatrix, kernel_basis, rref
from perfectnt.poly import CyclicRing, FieldPoly


def poly_scaled(a: FieldPoly, c: int) -> FieldPoly:
    """c * a, coefficient by coefficient."""
    return FieldPoly(tuple(c * x for x in a.coeffs), a.field)


def poly_gcd(a: FieldPoly, b: FieldPoly) -> FieldPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else poly_scaled(a, a.field.inv(a.coeffs[-1]))


def is_irreducible(g: FieldPoly) -> bool:
    """Trial division by all lower-degree monic polynomials."""
    if g.degree < 1:
        return False
    field = g.field
    for deg in range(1, g.degree // 2 + 1):
        for low in product(range(field.p), repeat=deg):
            f = FieldPoly(low + (1,), field)
            if (g % f).is_zero():
                return False
    return True


def ring_reduce(ring: CyclicRing, poly: FieldPoly) -> FieldPoly:
    """poly in GF(p)[x]/(x^n - 1): its exponents folded mod n."""
    acc = [0] * ring.n
    for i, c in enumerate(poly.coeffs):
        acc[i % ring.n] = (acc[i % ring.n] + c) % ring.field.p
    return FieldPoly(tuple(acc), ring.field)


def kernel_basis_two_eliminations(m: FieldMatrix) -> FieldMatrix:
    """The RREF of the null space of m: the free-column basis of rref(m),
    itself put in RREF by a second elimination."""
    reduced, rk, pivots = rref(m)
    free = np.delete(np.arange(m.cols), list(pivots))
    if not free.size:
        return FieldMatrix(m.field, np.zeros((0, m.cols), dtype=np.int64))
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


def hamming_columns(p: int, m: int) -> np.ndarray:
    """The m x N Hamming parity check by enumeration: every nonzero vector of
    GF(p)^m whose first nonzero entry is 1, in ascending lexicographic order."""
    cols = [c for c in product(range(p), repeat=m) if any(c) and next(v for v in c if v) == 1]
    cols.sort()
    return np.array(cols, dtype=np.int64).T


def cyclic_factors_from_the_product(spec: CodeSpec) -> tuple[np.ndarray, FieldMatrix]:
    """A and K of the cyclic build by the column route: H_e[i, j] = c[(i - j) % N],
    c the coefficients of x^r h(x) folded mod x^N - 1, K the RREF of H_e's
    first r rows and A = H_e[:, S] for its pivot columns S."""
    field, n, r = spec.field, spec.N, spec.redundancy
    coeffs = ring_reduce(CyclicRing(n, field), FieldPoly.monomial(field, r) * spec.h).coeffs
    column = np.array(coeffs + (0,) * (n - len(coeffs)), dtype=np.int64)
    first_rows = column[(np.arange(r)[:, None] - np.arange(n)) % n]
    reduced, _, pivots = rref(FieldMatrix(field, first_rows))
    return column[(np.arange(n)[:, None] - np.array(pivots)) % n], reduced


def dense_eigenspace(t) -> FieldMatrix:
    """Canonical basis of ker(T - lambda*I), eliminated from the dense view."""
    return kernel_basis(t.matrix - FieldMatrix.identity(t.field, t.n).scaled(t.lam))


def code_in_eigenspace_by_blocks(t) -> bool:
    """Whether T c = lambda*c for every codeword c of t.code, by applying T to a
    basis of ker H in r-row blocks. The basis is read off rref(H), r free
    columns at a time: the vector of free column f has a 1 at f and minus
    column f of the reduced rows at the pivots."""
    p, r = t.field.p, t.code.redundancy
    reduced, rank, pivots = rref(t.code.H)
    pivots = list(pivots)
    free = np.delete(np.arange(t.n), pivots)
    for cols in np.split(free, range(r, free.size, r)):
        block = np.zeros((cols.size, t.n), dtype=np.int64)
        block[np.arange(cols.size), cols] = 1
        block[:, pivots] = -reduced.data[:rank, cols].T % p
        if not np.array_equal(t.apply(block), t.lam * block % p):
            return False
    return True


def ring_inverse(ring: CyclicRing, c: FieldPoly) -> tuple[int, FieldPoly | None]:
    """(Res(x^n - 1, c), c^-1 or None) from one Euclidean remainder sequence.

    The resultant is the determinant of the circulant whose first column is
    c; it is nonzero iff gcd(c, x^n - 1) = 1, and then c^-1 is c's Bezout
    coefficient. Each step a = q*b + r uses Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r), and Res(a, b0) = b0^(deg a).
    """
    if c.field != ring.field:
        raise ModulusMismatchError("polynomial field does not match ring field")
    p = ring.field.p
    a, b = FieldPoly.monomial(ring.field, ring.n) - FieldPoly.one(ring.field), c
    # s_a * c = a and s_b * c = b modulo x^n - 1
    s_a, s_b = FieldPoly.zero(ring.field), FieldPoly.one(ring.field)
    res = 1
    while b.degree > 0:
        q, r = divmod(a, b)
        if r.is_zero():
            return 0, None
        sign = -1 if a.degree * b.degree % 2 else 1
        res = res * sign * pow(b.coeffs[-1], a.degree - r.degree, p) % p
        a, b, s_a, s_b = b, r, s_b, s_a - q * s_b
    if b.is_zero():
        return 0, None
    b0 = b.coeffs[0]
    return res * pow(b0, a.degree, p) % p, poly_scaled(s_b, pow(b0, -1, p))
