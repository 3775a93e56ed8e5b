import math
import tracemalloc

import numpy as np
import pytest

from perfectnt import reference
from perfectnt.codes import (
    CodeSpec,
    UnsupportedParametersError,
    all_codewords,
    cyclic_hamming_parity_poly,
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    parity_rows_from_check_poly,
    perfect_code_witness,
    perfect_witness,
    shortened_hamming_6_3,
    sphere_packing_sum,
)
from perfectnt.gf import MAX_LENGTH, PrimeField, is_prime
from perfectnt.matrix import FieldMatrix, circulant_from_first_row, kernel_basis, rref
from perfectnt.poly import FieldPoly, reversed_coefficient_row

from helpers import generator_from_parity, hamming_columns, is_irreducible, minimum_distance

GF2 = PrimeField(2)
GF3 = PrimeField(3)


# a small spread of valid Hamming parameters, cheap enough to enumerate
HAMMING_PARAMS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]


def test_ternary_hamming_column_order_is_fixed():
    spec = hamming_parity_check(3, 3)
    assert spec.H == FieldMatrix(GF3, reference.TERNARY_HAMMING13_PARITY)
    assert (spec.N, spec.k, spec.d) == (13, 10, 3)


@pytest.mark.parametrize("p,m", HAMMING_PARAMS)
def test_hamming_columns_are_normalized_projective_points(p, m):
    spec = hamming_parity_check(p, m)
    n = (p**m - 1) // (p - 1)
    assert spec.N == n and spec.k == n - m
    cols = [tuple(spec.H[:, j].tolist()) for j in range(n)]
    assert len(set(cols)) == n  # pairwise distinct
    assert cols == sorted(cols)  # ascending lexicographic
    for c in cols:
        assert next(v for v in c if v) == 1  # first nonzero entry normalized


@pytest.mark.parametrize(
    "p,m",
    [
        (p, m)
        for p in range(2, 200)
        if is_prime(p)
        for m in range(2, 8)
        if (p**m - 1) // (p - 1) <= 200
    ],
)
def test_hamming_columns_match_the_enumeration(p, m):
    assert np.array_equal(hamming_parity_check(p, m).H.data, hamming_columns(p, m))


def test_hamming_rejects_bad_parameters():
    with pytest.raises(UnsupportedParametersError):
        hamming_parity_check(2, 1)
    with pytest.raises(ValueError):
        hamming_parity_check(4, 3)  # not prime


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (2, 2, (1, 1)),
        (2, 3, (1, 1, 1, 0, 1)),
        (2, 4, (1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1)),
        (3, 3, (1, 2, 1, 0, 2, 2, 1, 1, 1, 0, 1)),
    ],
)
def test_cyclic_hamming_parity_poly(p, m, expected):
    h = cyclic_hamming_parity_poly(p, m)
    assert h.coeffs == expected
    n = (p**m - 1) // (p - 1)
    assert h.degree == n - m
    modulus = FieldPoly.monomial(PrimeField(p), n) - FieldPoly.one(PrimeField(p))
    assert (modulus % h).is_zero()


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (2, 5, (1, 0, 1, 0, 0, 1)),
        (2, 6, (1, 1, 0, 0, 0, 0, 1)),
        (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
        (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
        (3, 3, (2, 2, 0, 1)),
        (3, 5, (2, 2, 0, 0, 0, 1)),
        (5, 3, (4, 1, 0, 1)),
        (11, 3, (10, 4, 0, 1)),
        (17, 3, (16, 3, 0, 1)),
    ],
)
def test_cyclic_hamming_generator_poly(p, m, expected):
    # every (p, m) with N <= 400 that has a cyclic form; g ascending
    field = PrimeField(p)
    n = (p**m - 1) // (p - 1)
    modulus = FieldPoly.monomial(field, n) - FieldPoly.one(field)
    assert (modulus // cyclic_hamming_parity_poly(p, m)).coeffs == expected


def test_cyclic_hamming_generator_is_irreducible():
    # the search tests only the order of x mod g; for every cyclic-admissible
    # (p, m) with N <= 2**14, trial division confirms the g it picks is irreducible.
    # m = 2 gives an even N = p + 1 for odd p, so p^2 + p + 1 <= N keeps p < 128
    cases = [
        (p, m)
        for p in range(2, 128)
        if is_prime(p)
        for m in range(2, 15)
        if (p**m - 1) // (p - 1) <= MAX_LENGTH and math.gcd((p**m - 1) // (p - 1), p - 1) == 1
    ]
    assert len(cases) == 34
    for p, m in cases:
        field, n = PrimeField(p), (p**m - 1) // (p - 1)
        modulus = FieldPoly.monomial(field, n) - FieldPoly.one(field)
        g = modulus // cyclic_hamming_parity_poly(p, m)
        assert g.degree == m and is_irreducible(g), (p, m)


def test_longest_admitted_hamming_code():
    # p = 2, m = 14 is the longest binary Hamming code under the bound, and
    # m = 15 is refused by both constructions before anything is enumerated
    assert MAX_LENGTH == 2**14
    assert hamming_parity_check(2, 14).N == 2**14 - 1
    for construct in (hamming_parity_check, cyclic_hamming_parity_poly):
        with pytest.raises(UnsupportedParametersError, match=f"maximum N = {MAX_LENGTH}"):
            construct(2, 15)


@pytest.mark.parametrize(
    "spec",
    [cyclic_hamming_spec(p, m) for p, m in ((2, 3), (2, 4), (3, 3), (5, 3), (2, 7), (3, 5))]
    + [cyclic_hamming_spec(2, 8)]
    + [golay_spec("binary"), golay_spec("ternary")],
    ids=lambda spec: spec.label,
)
def test_parity_rows_are_the_leading_rows_of_the_circulant(spec):
    # N <= 255: the rows indexed directly equal a slice of the whole circulant
    circulant = circulant_from_first_row(spec.field, reversed_coefficient_row(spec.h, spec.N))
    rows = parity_rows_from_check_poly(spec.h, spec.N)
    assert rows == FieldMatrix(spec.field, circulant.data[: spec.N - spec.k])
    assert rows == spec.H


def test_cyclic_parity_rows_take_memory_in_m_times_n():
    # N = 8191: the N x N circulant alone took 512 MiB as int64
    tracemalloc.start()
    try:
        spec = cyclic_hamming_spec(2, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.H.shape == (13, 8191)
    assert peak < 64 * 2**20, peak


def test_cyclic_hamming_rejects_small_m():
    with pytest.raises(UnsupportedParametersError):
        cyclic_hamming_parity_poly(3, 1)


def test_cyclic_hamming_needs_length_coprime_to_p_minus_one():
    # N = 4 and p - 1 = 2 share a factor; the order-4 divisor x^2 + 1 of
    # x^4 - 1 generates {(a, b, a, b)}, a distance-2 code, so there is no
    # cyclic code equivalent to the ternary [4, 2, 3] Hamming code.
    with pytest.raises(UnsupportedParametersError, match="gcd"):
        cyclic_hamming_parity_poly(3, 2)
    with pytest.raises(UnsupportedParametersError):
        cyclic_hamming_spec(5, 2)  # N = 6, gcd(6, 4) = 2


def test_cyclic_hamming_spec_golden_rows():
    spec = cyclic_hamming_spec(2, 3)
    assert spec.H == FieldMatrix(GF2, reference.CYCLIC_HAMMING7_PARITY)
    assert spec.h is not None and spec.h.coeffs == (1, 1, 1, 0, 1)
    assert spec.label.endswith("-cyclic")


def _admitted_cyclic_hamming_specs(max_n):
    """cyclic_hamming_spec(p, m) for every (p, m) with N <= max_n that it admits."""
    specs = []
    for p in filter(is_prime, range(2, max_n)):
        for m in range(2, max_n.bit_length() + 1):
            if (p**m - 1) // (p - 1) <= max_n:
                try:
                    specs.append(cyclic_hamming_spec(p, m))
                except UnsupportedParametersError:
                    pass
    return specs


def test_cyclic_specs_keep_g_from_the_division_that_checks_h():
    # CodeSpec divides x^N - 1 by h once, refusing a remainder, and keeps the
    # quotient g: g*h = x^N - 1 for both cyclic Golay codes and all 12 cyclic
    # Hamming selectors with N <= 400
    cyclic = _admitted_cyclic_hamming_specs(400)
    assert len(cyclic) == 12
    for spec in cyclic + [golay_spec("binary"), golay_spec("ternary")]:
        modulus = FieldPoly.monomial(spec.field, spec.N) - FieldPoly.one(spec.field)
        assert spec.g * spec.h == modulus, spec
    for spec in (
        hamming_parity_check(3, 3),
        hamming74_systematic(),
        golay_spec("ternary_systematic"),
        golay_spec("extended_ternary"),
        shortened_hamming_6_3(),
    ):
        assert spec.h is None and spec.g is None, spec


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_cyclic_hamming_distance_is_three(p, m):
    spec = cyclic_hamming_spec(p, m)
    assert minimum_distance(spec) == 3 == spec.d


def test_golay_variants():
    b = golay_spec("binary")
    assert (b.N, b.k, b.d) == (23, 12, 7)
    assert b.h is not None and b.h.degree == 12
    t = golay_spec("ternary")
    assert (t.N, t.k, t.d) == (11, 6, 5)
    s = golay_spec("ternary_systematic")
    assert (s.N, s.k, s.d) == (11, 6, 5)
    assert s.h is None
    e = golay_spec("extended_ternary")
    assert (e.N, e.k, e.d) == (12, 6, 5)
    with pytest.raises(UnsupportedParametersError):
        golay_spec("quaternary")


def test_golay_distances_by_enumeration():
    assert minimum_distance(golay_spec("binary")) == 7
    assert minimum_distance(golay_spec("ternary")) == 5
    assert minimum_distance(golay_spec("ternary_systematic")) == 5
    # the stored length-12 matrix yields distance 5 (one entry away from the
    # self-dual form, which would give 6)
    assert minimum_distance(golay_spec("extended_ternary")) == 5


def test_ternary_golay_forms_share_weight_distribution():
    # the two parity checks give permutation-equivalent (not identical)
    # subspaces; equivalent codes must have the same weight enumerator
    def distribution(spec):
        words = all_codewords(spec)
        weights = np.count_nonzero(words, axis=1)
        return np.bincount(weights, minlength=spec.N + 1).tolist()

    cyclic = golay_spec("ternary")
    systematic = golay_spec("ternary_systematic")
    assert kernel_basis(cyclic.H) != kernel_basis(systematic.H)
    assert distribution(cyclic) == distribution(systematic)


def test_classic_hamming74():
    spec = hamming74_systematic()
    assert (spec.N, spec.k, spec.d) == (7, 4, 3)
    assert minimum_distance(spec) == 3
    gen = generator_from_parity(spec)
    assert gen == rref(FieldMatrix(GF2, reference.HAMMING74_GENERATOR))[0]


def test_control_code():
    spec = shortened_hamming_6_3()
    assert (spec.N, spec.k, spec.d) == (6, 3, 3)
    assert minimum_distance(spec) == 3
    assert perfect_witness(2, 6, 3) is None


def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(GF2, 4, 2, 1, FieldMatrix(GF2, [[1, 0, 1, 0], [1, 0, 1, 0]]), None, "dup")
    with pytest.raises(ValueError):
        CodeSpec(GF2, 4, 4, 1, FieldMatrix(GF2, [[0, 0, 0, 0]]), None, "k=N")
    with pytest.raises(ValueError):
        # check polynomial of the wrong degree
        CodeSpec(
            GF2,
            7,
            4,
            3,
            FieldMatrix(GF2, reference.CYCLIC_HAMMING7_PARITY),
            FieldPoly((1, 1), GF2),
            "bad-h",
        )
    with pytest.raises(ValueError, match=r"does not divide x\^N - 1"):
        # degree-4 polynomial that does not divide x^7 - 1
        CodeSpec(
            GF2,
            7,
            4,
            3,
            FieldMatrix(GF2, reference.CYCLIC_HAMMING7_PARITY),
            FieldPoly((1, 0, 0, 0, 1), GF2),
            "bad-h2",
        )


def test_generator_from_parity_annihilates():
    for spec in [
        hamming74_systematic(),
        hamming_parity_check(3, 3),
        golay_spec("binary"),
        golay_spec("ternary"),
        golay_spec("extended_ternary"),
        shortened_hamming_6_3(),
    ]:
        gen = generator_from_parity(spec)
        assert gen.rows == spec.k
        assert np.count_nonzero((spec.H.data @ gen.data.T) % spec.field.p) == 0


def test_zero_code_has_empty_generator():
    spec = CodeSpec(GF2, 3, 0, None, FieldMatrix.identity(GF2, 3), None, "zero")
    gen = generator_from_parity(spec)
    assert gen.shape == (0, 3)
    words = all_codewords(spec)
    assert words.shape == (1, 3)
    with pytest.raises(ValueError):
        minimum_distance(spec)


def test_all_codewords_counts():
    words = all_codewords(hamming74_systematic())
    assert words.shape == (16, 7)
    assert len({tuple(w) for w in words.tolist()}) == 16
    words = all_codewords(golay_spec("ternary"))
    assert words.shape == (729, 11)


def test_sphere_packing_sums_exact():
    assert sphere_packing_sum(2, 7, 1) == 8
    assert sphere_packing_sum(2, 23, 3) == 2048
    assert sphere_packing_sum(3, 11, 2) == 243
    assert sphere_packing_sum(3, 13, 1) == 27


@pytest.mark.parametrize(
    "p,n,k,expected",
    [
        (2, 7, 4, 1),
        (3, 13, 10, 1),
        (2, 23, 12, 3),
        (3, 11, 6, 2),
        (3, 12, 6, None),  # extended parameters never achieve equality
        (2, 6, 3, None),  # control code
        (2, 90, 78, 2),  # numerically tight despite no such code existing
    ],
)
def test_perfect_witness(p, n, k, expected):
    assert perfect_witness(p, n, k) == expected


# The binary Hamming columns with (0,0,1) replaced by a zero column, and with
# (1,1,1) replaced by a copy of (0,0,1); and the ternary hamming(4,2,3) columns
# with (1,2) replaced by (2,2), twice (1,1). Each keeps full rank, and so the
# parameters of a perfect code, at d < 3
BELOW_DISTANCE_3 = {
    "zero-column": (2, [[0, 1, 0, 1, 1, 0, 1], [0, 0, 1, 1, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1]]),
    "repeated-column": (2, [[0, 0, 0, 1, 1, 1, 0], [0, 1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 1, 0, 1]]),
    "proportional-columns": (3, [[1, 0, 1, 2], [0, 1, 1, 2]]),
}


@pytest.mark.parametrize("case", BELOW_DISTANCE_3)
def test_the_radius_one_witness_certifies_the_code(case):
    # at t = 1 the parameters alone are not enough: the code's columns must be
    # nonzero and pairwise independent, else d < 3 and no radius is certified
    p, h = BELOW_DISTANCE_3[case]
    rows = FieldMatrix(PrimeField(p), h)
    assert rref(rows)[1] == rows.rows
    assert perfect_witness(p, rows.cols, rows.cols - rows.rows) == 1
    assert perfect_code_witness(rows) is None
    assert perfect_code_witness(rref(rows)[0]) is None


def test_a_spec_keeps_the_rref_of_its_parity_check():
    # the rank check's elimination is kept, not repeated: `reduced` and `pivots`
    # are rref(H)'s; at p = 16381 (N = 16382, one inverse per column) the
    # witness read off them is the Hamming radius 1
    for spec in [
        hamming74_systematic(),
        cyclic_hamming_spec(2, 3),
        golay_spec("ternary"),
        hamming_parity_check(16381, 2),
    ]:
        reduced, _, pivots = rref(spec.H)
        assert spec.reduced == reduced and spec.pivots == pivots, spec
    assert perfect_code_witness(spec.reduced) == 1


def test_rank_of_fixtures():
    for spec in [
        hamming74_systematic(),
        cyclic_hamming_spec(2, 3),
        golay_spec("binary"),
        golay_spec("ternary"),
        golay_spec("ternary_systematic"),
        golay_spec("extended_ternary"),
        shortened_hamming_6_3(),
    ]:
        assert rref(spec.H)[1] == spec.N - spec.k
