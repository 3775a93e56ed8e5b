"""Frozen expected values for the golden transform constructions.

Every matrix and number in this module is stored literally and kept
independent of the constructors, so the verification suite and the CLI
``verify`` subcommand compare freshly built objects against fixed data
rather than against the code that built them. Matrices with -1 entries
are normalized to canonical residues when wrapped into a FieldMatrix.

Layout notes: transforms are N x N matrices over GF(p) built as an
inflated parity check plus lambda times the identity (lambda = 1 for
every golden build); parity matrices are the (N-k) x N inputs expected
from the corresponding constructors; characteristic polynomials are
ascending coefficient tuples of det(xI - T).
"""

from __future__ import annotations

from .gf import PrimeField
from .matrix import FieldMatrix

GOLDEN_LAMBDA = 1

# -- [7,4] binary Hamming, systematic parity check, null-row inflation -------

HAMMING74_TRANSFORM = (
    (0, 1, 0, 1, 1, 0, 0),
    (1, 0, 1, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)
HAMMING74_TRANSFORM_DET = 1

# Generator whose rows span the eigenspace of the transform above.
HAMMING74_GENERATOR = (
    (1, 1, 0, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 0, 1, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
)

# -- [13,10] ternary Hamming, projective-column parity check -----------------

TERNARY_HAMMING13_PARITY = (
    (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 2, 2, 2),
    (1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2),
)

TERNARY_HAMMING13_TRANSFORM = (
    (1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 2, 1, 1, 0, 0, 0, 1, 1, 1, 2, 2, 2),
    (1, 0, 2, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)
TERNARY_HAMMING13_TRANSFORM_DET = 1

# -- [7,4] binary Hamming, cyclic form (h(x) = x^4+x^2+x+1) ------------------

CYCLIC_HAMMING7_PARITY = (
    (1, 0, 1, 1, 1, 0, 0),
    (0, 1, 0, 1, 1, 1, 0),
    (0, 0, 1, 0, 1, 1, 1),
)

# Full 7x7 circulant before the diagonal is added.
CYCLIC_HAMMING7_INFLATED = (
    (1, 0, 1, 1, 1, 0, 0),
    (0, 1, 0, 1, 1, 1, 0),
    (0, 0, 1, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 1, 1),
    (1, 1, 0, 0, 1, 0, 1),
    (1, 1, 1, 0, 0, 1, 0),
    (0, 1, 1, 1, 0, 0, 1),
)

CYCLIC_HAMMING7_TRANSFORM = (
    (0, 0, 1, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 1, 1),
    (1, 0, 0, 0, 0, 1, 1),
    (1, 1, 0, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
)
CYCLIC_HAMMING7_TRANSFORM_DET = 1

# -- [23,12] binary Golay, cyclic form ----------------------------------------

BINARY_GOLAY23_TRANSFORM = (
    (0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1),
    (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0),
    (0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1),
    (1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0),
    (0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    (1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    (1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)
BINARY_GOLAY23_TRANSFORM_DET = 1

# -- [11,6] ternary Golay, cyclic form -----------------------------------------

TERNARY_GOLAY11_CYCLIC_TRANSFORM = (
    (2, 2, 2, 2, 1, 0, 1, 0, 0, 0, 0),
    (0, 2, 2, 2, 2, 1, 0, 1, 0, 0, 0),
    (0, 0, 2, 2, 2, 2, 1, 0, 1, 0, 0),
    (0, 0, 0, 2, 2, 2, 2, 1, 0, 1, 0),
    (0, 0, 0, 0, 2, 2, 2, 2, 1, 0, 1),
    (1, 0, 0, 0, 0, 2, 2, 2, 2, 1, 0),
    (0, 1, 0, 0, 0, 0, 2, 2, 2, 2, 1),
    (1, 0, 1, 0, 0, 0, 0, 2, 2, 2, 2),
    (2, 1, 0, 1, 0, 0, 0, 0, 2, 2, 2),
    (2, 2, 1, 0, 1, 0, 0, 0, 0, 2, 2),
    (2, 2, 2, 1, 0, 1, 0, 0, 0, 0, 2),
)
TERNARY_GOLAY11_CYCLIC_TRANSFORM_DET = 2
TERNARY_GOLAY11_CYCLIC_ORDER = 242

# det(xI - T) for the cyclic ternary Golay transform, ascending; it factors
# as (x+2)^6 * (x^5+2x^4+x^3+x^2+x+1), listed as (factor coeffs, multiplicity).
TERNARY_GOLAY11_CYCLIC_CHARPOLY = (1, 1, 1, 2, 0, 2, 2, 0, 2, 1, 2, 1)
TERNARY_GOLAY11_CYCLIC_CHARPOLY_FACTORS = (
    ((2, 1), 6),
    ((1, 1, 1, 1, 2, 1), 1),
)

# -- [11,6] ternary Golay, systematic parity check -----------------------------

TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM = (
    (2, 1, 1, 2, 2, 0, 1, 0, 0, 0, 0),
    (1, 2, 2, 1, 0, 2, 0, 1, 0, 0, 0),
    (1, 2, 2, 0, 1, 2, 0, 0, 1, 0, 0),
    (1, 2, 0, 2, 2, 1, 0, 0, 0, 1, 0),
    (1, 0, 2, 2, 2, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)
TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM_DET = 2
TERNARY_GOLAY11_SYSTEMATIC_CHARPOLY = (1, 0, 0, 2, 2, 1, 2, 2, 1, 1, 2, 1)

# -- length-12 extended ternary matrix, combination inflation -------------------

# Inflation appends the parity-row sums with indices (0,1), (0,2), (0,3),
# (0,4), (0,5), (1,2) before the diagonal is added.
EXTENDED_GOLAY12_TRANSFORM = (
    (1, -1, -1, -1, -1, -1, 1, 0, 0, 0, 0, 0),
    (-1, 1, -1, 1, 1, -1, 0, 1, 0, 0, 0, 0),
    (-1, -1, 1, -1, 1, 1, 0, 0, 1, 0, 0, 0),
    (-1, 1, -1, 1, -1, 1, 0, 0, 0, 1, 0, 0),
    (-1, 1, 1, -1, 1, 1, 0, 0, 0, 0, 1, 0),
    (-1, -1, 1, 1, -1, 1, 0, 0, 0, 0, 0, 1),
    (-1, -1, 1, 0, 0, 1, -1, 1, 0, 0, 0, 0),
    (-1, 1, -1, 1, 0, 0, 1, 1, 1, 0, 0, 0),
    (-1, 0, 1, -1, 1, 0, 1, 0, 1, 1, 0, 0),
    (-1, 0, 0, 1, -1, 0, 1, 0, 0, 1, 1, 0),
    (-1, 1, 0, 0, 1, -1, 1, 0, 0, 0, 1, 1),
    (1, -1, -1, 0, -1, 0, 0, 1, 1, 0, 0, 1),
)
EXTENDED_GOLAY12_TRANSFORM_DET = 2

EXTENDED_GOLAY12_INVERSE = (
    (1, 0, -1, 1, 1, 1, 0, -1, 1, 1, 1, 1),
    (-1, 1, 0, 1, -1, 0, 0, -1, 1, 1, 0, 0),
    (0, 1, -1, 0, 1, -1, -1, -1, 1, -1, 0, 1),
    (0, 1, 0, 0, 0, -1, 1, -1, -1, 1, -1, -1),
    (1, 1, 0, -1, 1, 1, 0, -1, 1, 0, -1, 0),
    (-1, -1, -1, 0, 0, 0, 1, 1, 1, -1, 1, -1),
    (-1, 0, -1, -1, 0, 1, 1, 1, -1, -1, 1, 1),
    (0, 1, 0, 1, -1, 0, -1, -1, -1, 0, 1, -1),
    (0, 1, -1, 0, 1, 0, 1, 1, 1, -1, 0, 0),
    (1, 1, -1, 0, 1, -1, 0, 1, -1, -1, 0, 1),
    (-1, -1, 1, 1, 1, 0, 1, 0, -1, 0, 0, 0),
    (-1, 1, 1, 1, 0, -1, -1, 1, -1, 0, 0, -1),
)

# -- [6,3] shortened Hamming control --------------------------------------------

SHORTENED63_TRANSFORM_DET = 1


def matrix(p: int, rows) -> FieldMatrix:
    """Wrap one of the tuples above as a FieldMatrix over GF(p)."""
    return FieldMatrix(PrimeField(p), rows)
