"""Perfect linear block codes and the fixtures the transforms are built from.

A :class:`CodeSpec` bundles a parity-check matrix H (shape (N-k) x N,
full rank) with the code parameters, and optionally the check polynomial
h(x) when the code is cyclic. Constructors cover the Hamming family over
any prime (column form and cyclic form), the binary and ternary Golay
codes, a systematic ternary Golay parity check, the extended ternary
Golay matrix used by the combination-inflated transform, and a shortened
Hamming control code that is deliberately not perfect.

Hard-coded matrices are data, not derivations; the test suite cross
checks them (rank, minimum distance by exhaustive enumeration over
:func:`all_codewords`, and the golden transforms they produce).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import product

import numpy as np

from .gf import MAX_LENGTH, PrimeField, is_prime
from .matrix import FieldMatrix, circulant_from_first_row, kernel_basis, mulmod, rref
from .poly import FieldPoly, reversed_coefficient_row


class UnsupportedParametersError(ValueError):
    """Raised when no construction exists for the requested parameters."""


@dataclass(frozen=True)
class CodeSpec:
    """An [N, k, d] linear code over GF(p), given by its parity check.

    h is the check polynomial for cyclic codes (ascending coefficients,
    degree k, divides x^N - 1) and None otherwise. Two derived objects are
    kept from the checks that produce them: `reduced` and `pivots`, rref(H)
    and its pivot columns, from the elimination that checks H's rank, and
    g = (x^N - 1)/h, from the division that checks h (None when h is).
    """

    field: PrimeField
    N: int
    k: int
    d: int | None
    H: FieldMatrix
    h: FieldPoly | None
    label: str
    g: FieldPoly | None = dataclass_field(init=False, compare=False, default=None)
    reduced: FieldMatrix = dataclass_field(init=False, compare=False)
    pivots: tuple[int, ...] = dataclass_field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= self.k < self.N):
            raise ValueError(f"need 0 <= k < N, got k={self.k}, N={self.N}")
        if self.H.field != self.field:
            raise ValueError("parity-check field does not match the code field")
        if self.H.shape != (self.N - self.k, self.N):
            raise ValueError(
                f"parity check must be {(self.N - self.k, self.N)}, got {self.H.shape}"
            )
        reduced, rank, pivots = rref(self.H)
        if rank != self.N - self.k:
            raise ValueError(f"parity check of {self.label} is rank deficient")
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "pivots", pivots)
        if self.d is not None and self.d < 1:
            raise ValueError("distance must be positive when given")
        if self.h is not None:
            if self.h.field != self.field:
                raise ValueError("check polynomial field does not match the code field")
            if self.h.degree != self.k:
                raise ValueError(
                    f"check polynomial degree {self.h.degree} != k = {self.k}"
                )
            modulus = FieldPoly.monomial(self.field, self.N) - FieldPoly.one(self.field)
            g, remainder = divmod(modulus, self.h)
            if not remainder.is_zero():
                raise ValueError("check polynomial does not divide x^N - 1")
            object.__setattr__(self, "g", g)

    @property
    def redundancy(self) -> int:
        return self.N - self.k

    def __repr__(self) -> str:
        return f"CodeSpec({self.label} over {self.field!r})"


# -- Hamming family ----------------------------------------------------------


def hamming_parity_check(p: int, m: int) -> CodeSpec:
    """Hamming code over GF(p) with m parity checks, in column form.

    The columns of H are the normalized projective representatives of
    GF(p)^m \\ {0} (first nonzero coordinate scaled to 1), listed in
    ascending lexicographic order. N = (p^m - 1)/(p - 1), k = N - m,
    d = 3.

    They are written directly, in O(mN): one block per leading-1 position i,
    from i = m-1 down to 0, whose columns are (0, ..., 0, 1, digits), the
    digits running through the base-p forms of 0, 1, ..., p^(m-1-i) - 1.
    """
    field = PrimeField(p)
    n = _hamming_length(p, m)
    data = np.zeros((m, n), dtype=np.int64)
    start = 0
    for width in range(m):  # the block whose leading 1 is in row m-1-width
        block = slice(start, start + p**width)
        data[m - 1 - width, block] = 1
        place_values = p ** np.arange(width - 1, -1, -1)
        data[m - width :, block] = np.arange(p**width) // place_values[:, None] % p
        start += p**width
    h_matrix = FieldMatrix(field, data)
    k = n - m
    return CodeSpec(field, n, k, 3, h_matrix, None, f"hamming({n},{k},3)")


def _hamming_length(p: int, m: int) -> int:
    """N = (p^m - 1)/(p - 1) for m >= 2, refused past MAX_LENGTH.

    The sum 1 + p + ... + p^(m-1) is accumulated term by term and the check
    stops at the first partial sum past the bound, so a huge m costs no more
    than about 15 steps.
    """
    if m < 2:
        raise UnsupportedParametersError(f"Hamming construction needs m >= 2, got {m}")
    n = 0
    for _ in range(m):
        n = n * p + 1
        if n > MAX_LENGTH:
            raise UnsupportedParametersError(
                f"the Hamming code over GF({p}) with m={m} is longer than the "
                f"supported maximum N = {MAX_LENGTH}"
            )
    return n


def cyclic_hamming_parity_poly(p: int, m: int) -> FieldPoly:
    """Check polynomial h(x) = (x^N - 1)/g(x) for the cyclic Hamming code.

    g is chosen among the monic degree-m irreducible divisors of
    x^N - 1 whose root has multiplicative order exactly N, taking the
    lexicographically smallest coefficient list with the leading
    coefficient compared first: the candidates are visited in that order
    and the first that passes is used. A cyclic code equivalent to the
    Hamming code only exists when gcd(N, p-1) = 1 (always true for
    p = 2); otherwise the order-N construction yields a code with
    repeated projective points and minimum distance 2, so it is
    rejected. The CodeSpec built on h gets g back as its `g`, the
    quotient of the division that checks h.

    Only the order of x mod g is tested, by pow(x, e, g), which reduces
    after every step: order N implies irreducibility.
    N = (p^m - 1)/(p - 1) = 1 mod p, so x^N - 1 is squarefree. If g
    split into t >= 2 irreducible factors of degrees d_i, the order of x
    would divide lcm(p^d_i - 1), which is at most
    prod(p^d_i - 1)/(p - 1)^(t-1) < N.
    """
    field = PrimeField(p)
    n = _hamming_length(p, m)
    if math.gcd(n, p - 1) != 1:
        raise UnsupportedParametersError(
            f"no cyclic representation: gcd({n}, {p - 1}) != 1, so no cyclic code "
            f"of length {n} over GF({p}) is equivalent to the Hamming code"
        )
    x, one = FieldPoly.monomial(field, 1), FieldPoly.one(field)
    cofactors = [n // q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    for high in product(range(p), repeat=m):
        g = FieldPoly(tuple(reversed(high)) + (1,), field)
        # x^n = 1 mod g means g | x^n - 1; the order of x is exactly n
        # when x^(n/q) != 1 for every prime q | n
        if pow(x, n, g) == one and not any(pow(x, d, g) == one for d in cofactors):
            return (FieldPoly.monomial(field, n) - one) // g
    raise UnsupportedParametersError(
        f"no cyclic representation: no monic irreducible degree-{m} divisor of "
        f"x^{n}-1 over GF({p}) has order {n}"
    )


def parity_rows_from_check_poly(h: FieldPoly, n: int) -> FieldMatrix:
    """First n - deg(h) rows of the circulant generated by h.

    Row 0 places h's coefficients in descending degree (leading first)
    padded with zeros to length n; row i is that row cyclically shifted
    right by i. The rows span the dual code, so the slice is a parity
    check for the cyclic code with check polynomial h.
    """
    return circulant_from_first_row(h.field, reversed_coefficient_row(h, n), n - h.degree)


def cyclic_hamming_spec(p: int, m: int) -> CodeSpec:
    """Hamming code over GF(p) in cyclic form, with its check polynomial."""
    h = cyclic_hamming_parity_poly(p, m)
    n = _hamming_length(p, m)
    k = n - m
    h_matrix = parity_rows_from_check_poly(h, n)
    return CodeSpec(PrimeField(p), n, k, 3, h_matrix, h, f"hamming({n},{k},3)-cyclic")


# -- fixed parity-check data --------------------------------------------------

# Classic systematic parity check of the [7,4,3] binary Hamming code,
# H = [P | I3]; its kernel's canonical generator is the usual G = [I4 | P^T].
_H74_CLASSIC = (
    (1, 1, 0, 1, 1, 0, 0),
    (1, 1, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 0, 0, 1),
)

# Check polynomials of the two perfect Golay codes, ascending coefficients.
# binary [23,12,7]: h(x) = x^12+x^11+x^10+x^9+x^8+x^5+x^2+1
_GOLAY23_H_COEFFS = (1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1)
# ternary [11,6,5]: h(x) = x^6+2x^5+2x^4+2x^3+x^2+1
_GOLAY11_H_COEFFS = (1, 0, 1, 2, 2, 2, 1)

# Systematic parity check of the ternary Golay code, H = [B | I5].
_GOLAY11_SYSTEMATIC_H = (
    (1, 1, 1, 2, 2, 0, 1, 0, 0, 0, 0),
    (1, 1, 2, 1, 0, 2, 0, 1, 0, 0, 0),
    (1, 2, 1, 0, 1, 2, 0, 0, 1, 0, 0),
    (1, 2, 0, 1, 2, 1, 0, 0, 0, 1, 0),
    (1, 0, 2, 2, 1, 1, 0, 0, 0, 0, 1),
)

# 6 x 12 parity check used for the combination-inflated length-12 transform,
# written with -1 entries; FieldMatrix normalizes them to 2 mod 3. Exhaustive
# weight enumeration of its kernel gives minimum distance 5 (the matrix is one
# entry away from the classical self-dual form, whose kernel has distance 6).
_EXTENDED_GOLAY_H = (
    (0, -1, -1, -1, -1, -1, 1, 0, 0, 0, 0, 0),
    (-1, 0, -1, 1, 1, -1, 0, 1, 0, 0, 0, 0),
    (-1, -1, 0, -1, 1, 1, 0, 0, 1, 0, 0, 0),
    (-1, 1, -1, 0, -1, 1, 0, 0, 0, 1, 0, 0),
    (-1, 1, 1, -1, 0, 1, 0, 0, 0, 0, 1, 0),
    (-1, -1, 1, 1, -1, 0, 0, 0, 0, 0, 0, 1),
)

# Shortened [6,3] binary code: the classic [7,4] parity check with its first
# coordinate deleted. Rank stays 3, minimum distance stays 3, and the
# sphere-packing equality fails for every radius, so this is the control case
# that transforms can be built from but never certified perfect.
_SHORTENED63_H = (
    (1, 0, 1, 1, 0, 0),
    (1, 1, 0, 0, 1, 0),
    (0, 1, 1, 0, 0, 1),
)

GOLAY_VARIANTS = ("binary", "ternary", "ternary_systematic", "extended_ternary")


def hamming74_systematic() -> CodeSpec:
    """The classic [7,4,3] binary Hamming code in systematic form."""
    field = PrimeField(2)
    return CodeSpec(
        field, 7, 4, 3, FieldMatrix(field, _H74_CLASSIC), None, "hamming(7,4,3)"
    )


def golay_spec(variant: str) -> CodeSpec:
    """One of the Golay-family fixtures.

    "binary" and "ternary" are the perfect cyclic Golay codes with their
    check polynomials; "ternary_systematic" is the same ternary code via
    a fixed systematic parity check; "extended_ternary" is the length-12
    matrix used by the combination-inflated transform (minimum distance
    5 by enumeration, not perfect).
    """
    if variant == "binary":
        field = PrimeField(2)
        h = FieldPoly(_GOLAY23_H_COEFFS, field)
        return CodeSpec(
            field, 23, 12, 7, parity_rows_from_check_poly(h, 23), h, "golay(23,12,7)"
        )
    if variant == "ternary":
        field = PrimeField(3)
        h = FieldPoly(_GOLAY11_H_COEFFS, field)
        return CodeSpec(
            field, 11, 6, 5, parity_rows_from_check_poly(h, 11), h, "golay(11,6,5)"
        )
    if variant == "ternary_systematic":
        field = PrimeField(3)
        return CodeSpec(
            field,
            11,
            6,
            5,
            FieldMatrix(field, _GOLAY11_SYSTEMATIC_H),
            None,
            "golay(11,6,5)-systematic",
        )
    if variant == "extended_ternary":
        field = PrimeField(3)
        return CodeSpec(
            field,
            12,
            6,
            5,
            FieldMatrix(field, _EXTENDED_GOLAY_H),
            None,
            "extended-golay(12,6,5)",
        )
    raise UnsupportedParametersError(
        f"unknown Golay variant {variant!r}; expected one of {GOLAY_VARIANTS}"
    )


def shortened_hamming_6_3() -> CodeSpec:
    """The [6,3,3] control code: valid for transforms, not perfect."""
    field = PrimeField(2)
    return CodeSpec(
        field, 6, 3, 3, FieldMatrix(field, _SHORTENED63_H), None, "shortened-hamming(6,3,3)"
    )


# -- derived objects -----------------------------------------------------------


def all_codewords(spec: CodeSpec) -> np.ndarray:
    """All p^k codewords as a (p^k, N) residue array (exhaustive; tests only)."""
    p = spec.field.p
    if spec.k == 0:
        return np.zeros((1, spec.N), dtype=np.int64)
    messages = np.array(list(product(range(p), repeat=spec.k)), dtype=np.int64)
    return mulmod(messages, kernel_basis(spec.H), p)


# -- sphere packing ------------------------------------------------------------


def sphere_packing_sum(p: int, n: int, t: int) -> int:
    """|B_t|: exact number of words within Hamming distance t of a point."""
    return sum(math.comb(n, i) * (p - 1) ** i for i in range(t + 1))


def perfect_witness(p: int, n: int, k: int) -> int | None:
    """The radius t >= 1 with |B_t| * p^k = p^n, or None.

    Exact integer arithmetic throughout; a code is perfect exactly when
    such a t exists for its parameters.
    """
    target = p ** (n - k)
    for t in range(1, n + 1):
        s = sphere_packing_sum(p, n, t)
        if s == target:
            return t
        if s > target:
            return None
    return None


def perfect_code_witness(rows: FieldMatrix) -> int | None:
    """The perfectness radius of ker(rows), rows independent, or None.

    perfect_witness at dimension N - rank, kept only when the code reaches
    it. At t = 1 that needs minimum distance 3: every column of `rows`
    nonzero and no two proportional. Each column is scaled so that its
    first nonzero entry is 1 and the scaled columns must be distinct, in
    O(rN) beside the sort. At t >= 2 the distance is not checked.
    """
    p, n = rows.field.p, rows.cols
    witness = perfect_witness(p, n, n - rows.rows)
    if witness != 1:
        return witness
    cols = rows.data.T
    nonzero = cols != 0
    if not nonzero.any(axis=1).all():
        return None
    lead = cols[np.arange(n), nonzero.argmax(axis=1)].tolist()
    scaled = cols * np.array([pow(c, -1, p) for c in lead])[:, None] % p
    ordered = scaled[np.lexsort(scaled.T)]
    return None if (ordered[1:] == ordered[:-1]).all(axis=1).any() else 1
