import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from perfectnt import matrix, reference
from perfectnt.codes import cyclic_hamming_spec, hamming_parity_check
from perfectnt.gf import ModulusMismatchError, PrimeField
from perfectnt.matrix import (
    Factored,
    FieldMatrix,
    SingularMatrixError,
    as_vector,
    char_poly,
    circulant_from_first_row,
    determinant,
    format_matrix_json,
    format_matrix_text,
    inverse,
    kernel_basis,
    mulmod,
    multiplicative_order,
    parse_matrix,
    rref,
)
from perfectnt.poly import CyclicRing, FieldPoly
from perfectnt.transforms import build_appendix_systematic, build_cyclic, build_standard

from helpers import (
    holds_no_float_array,
    kernel_basis_two_eliminations,
    poly_gcd,
    python_product,
    ring_inverse,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF7 = PrimeField(7)


@st.composite
def square_matrices(draw, max_n=5):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return FieldMatrix(PrimeField(p), rows)


@st.composite
def rect_matrices(draw, max_dim=6):
    p = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return FieldMatrix(PrimeField(p), rows)


@st.composite
def eliminable_matrices(draw):
    """Up to 30 x 40 over small and near-maximal p, sparse to full, with
    zero columns and (scaled) duplicate rows, so elimination meets empty
    pivot columns, sparse pivot rows and rank deficiency."""
    p = draw(st.sampled_from([2, 3, 7, 2_097_143]))
    r = draw(st.integers(1, 30))
    c = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, size=(r, c)) * (rng.random((r, c)) < density)
    a[:, draw(st.lists(st.integers(0, c - 1), max_size=3))] = 0
    for src, dst, scale in draw(
        st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.integers(1, p - 1)), max_size=3)
    ):
        a[dst] = a[src] * scale % p
    return FieldMatrix(PrimeField(p), a)


@st.composite
def square_pairs(draw, max_n=4):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, max_n))
    mk = lambda: draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    field = PrimeField(p)
    return FieldMatrix(field, mk()), FieldMatrix(field, mk())


def test_constructor_normalizes_and_freezes():
    m = FieldMatrix(GF3, [[-1, 4], [3, 5]])
    assert m.tolist() == [[2, 1], [0, 2]]
    with pytest.raises(ValueError):
        m.data[0, 0] = 1  # read-only array
    with pytest.raises(AttributeError):
        m.field = GF2
    with pytest.raises(ValueError):
        FieldMatrix(GF3, [1, 2, 3])  # 1-D
    with pytest.raises(ValueError, match="int64"):
        FieldMatrix(GF3, [[10**20]])


@pytest.mark.parametrize("layout", ["plain", "transposed", "strided"])
def test_residues_copy_the_callers_array(layout):
    # canonical input skips the reduction, but the result is still a copy:
    # the caller's array stays writable and shares no memory with it
    p = 7
    base = np.arange(-40, 40, dtype=np.int64).reshape(8, 10) * 3
    for arr, want in ((base % p, base % p), (base, base % p)):
        arr = {"plain": arr.copy(), "transposed": arr.T, "strided": arr[::2, ::3]}[layout]
        want = {"plain": want, "transposed": want.T, "strided": want[::2, ::3]}[layout]
        before = arr.copy()
        m = FieldMatrix(PrimeField(p), arr)
        vec = as_vector(PrimeField(p), arr[0])
        assert m.tolist() == want.tolist()
        assert vec.tolist() == want[0].tolist()
        for got in (m.data, vec):
            assert got.dtype == np.int64
            assert not np.shares_memory(got, arr)
        assert arr.flags.writeable
        arr[0, 0] += 1
        assert np.array_equal(arr[1:], before[1:])
    # entries >= p and negative entries next to canonical ones
    assert as_vector(PrimeField(p), [0, 6, 7, -1, -(2**63), 2**63 - 1]).tolist() == [
        x % p for x in (0, 6, 7, -1, -(2**63), 2**63 - 1)
    ]


@pytest.mark.parametrize(
    "data",
    [
        [1.5, 2.9],
        [1.0, 2.0],
        ["12", "3"],
        [True, False],
        [1, True],
        [None, 1],
        [1 + 0j, 1],
        [np.float32(1), 2],
        np.array([1.5, 2.0]),
        np.array([True, False]),
        np.array(["1", "2"]),
    ],
    ids=lambda data: repr(data).replace(" ", ""),
)
def test_residues_refuse_non_integer_entries(data):
    # a float is not truncated and a digit string is not parsed
    with pytest.raises(ValueError, match="entries must be integers"):
        as_vector(PrimeField(7), data)
    with pytest.raises(ValueError, match="entries must be integers"):
        FieldMatrix(PrimeField(7), [data, data])


@pytest.mark.parametrize(
    "data,want",
    [
        (np.array([3, 9], dtype=np.uint8), [3, 2]),
        (np.array([3, 2**40], dtype=np.uint64), [3, 2**40 % 7]),
        (np.array([-3, 9], dtype=np.int32), [4, 2]),
        ([np.int64(9), np.uint16(3)], [2, 3]),
        ([2**63], "int64"),
        ([-1, 2**63], "int64"),
        (np.array([2**64 - 1], dtype=np.uint64), "int64"),
    ],
)
def test_residues_take_every_integer_type(data, want):
    if want == "int64":
        with pytest.raises(ValueError, match="int64 range"):
            as_vector(PrimeField(7), data)
    else:
        assert as_vector(PrimeField(7), data).tolist() == want


def test_shape_helpers():
    m = FieldMatrix(GF2, [[1, 0, 1], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.shape == (2, 3)
    assert m.data[1].tolist() == [0, 1, 1]
    assert m[:, 2].tolist() == [1, 1]
    assert m.transpose().shape == (3, 2)
    assert m[1, 2] == 1


def test_arithmetic_and_equality():
    a = FieldMatrix(GF3, [[1, 2], [0, 1]])
    b = FieldMatrix(GF3, [[2, 2], [1, 0]])
    assert (a + b).tolist() == [[0, 1], [1, 1]]
    assert (a - b).tolist() == [[2, 0], [2, 1]]
    assert (a @ b).tolist() == [[1, 2], [1, 0]]
    assert a.scaled(2).tolist() == [[2, 4 % 3], [0, 2]]
    assert a == FieldMatrix(GF3, [[1, 2], [0, 1]])
    assert a != b
    with pytest.raises(ModulusMismatchError):
        _ = a + FieldMatrix(GF2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        _ = a + FieldMatrix(GF3, [[1, 2, 0]])
    with pytest.raises(ValueError):
        _ = a @ FieldMatrix(GF3, [[1, 2, 0]])


def test_mat_vec():
    m = FieldMatrix(GF2, reference.CYCLIC_HAMMING7_TRANSFORM)
    ones = m.mat_vec([1] * 7)
    assert ones.tolist() == [1] * 7
    with pytest.raises(ValueError):
        m.mat_vec([1, 0])
    with pytest.raises(ValueError):
        as_vector(GF2, [[1, 0]])
    with pytest.raises(ValueError, match="int64"):
        as_vector(GF2, [-(10**20), 1])


def test_rref_known_case():
    m = FieldMatrix(GF3, [[1, 0, 2], [1, 1, 0], [2, 1, 1]])
    reduced, rk, pivots = rref(m)
    assert rk == 3
    assert pivots == (0, 1, 2)
    assert reduced == FieldMatrix.identity(GF3, 3)
    singular = FieldMatrix(GF3, [[1, 2], [2, 4]])
    reduced, rk, pivots = rref(singular)
    assert rk == 1
    assert pivots == (0,)
    assert reduced.tolist() == [[1, 2], [0, 0]]


def test_rref_is_idempotent_on_kernel():
    m = FieldMatrix(GF2, reference.CYCLIC_HAMMING7_PARITY)
    kb = kernel_basis(m)
    assert rref(kb)[0] == kb  # canonical form is a fixed point


def test_kernel_basis_annihilates():
    m = FieldMatrix(GF3, reference.TERNARY_HAMMING13_PARITY)
    kb = kernel_basis(m)
    assert kb.rows == 10
    assert np.count_nonzero((m.data @ kb.data.T) % 3) == 0
    full = FieldMatrix.identity(GF3, 4)
    assert kernel_basis(full).rows == 0


def test_kernel_invariant_under_row_operations():
    m = FieldMatrix(GF3, [[1, 2, 0, 1], [0, 1, 1, 1]])
    # replace row 1 by 2*row0 + row1: same row space, same kernel
    m2 = FieldMatrix(GF3, [[1, 2, 0, 1], [2, 2, 1, 0]])
    assert kernel_basis(m) == kernel_basis(m2)


@pytest.mark.parametrize("p", [2, 3, 7, 257])
def test_kernel_basis_matches_two_eliminations(p):
    # the one-elimination basis against the free-column basis put in RREF by a
    # second elimination; sparse rows, zero columns and repeated rows make
    # rank deficiency and empty pivot columns common
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(300):
        rows, cols = rng.integers(1, 9), rng.integers(1, 14)
        density = rng.choice([0.1, 0.3, 0.6, 1.0])
        a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
        a[:, rng.integers(0, cols, size=rng.integers(0, 3))] = 0
        if rows > 1:
            a[rng.integers(1, rows)] = a[0] * rng.integers(0, p) % p
        m = FieldMatrix(field, a)
        assert kernel_basis(m) == kernel_basis_two_eliminations(m), a.tolist()


def test_kernel_basis_takes_no_second_copy_of_its_result():
    # N = 1023: the basis is filled through a reversed view, so the peak stays
    # near one copy of the 1013 x 1023 result, where a reversing copy doubled it
    h = hamming_parity_check(2, 10).H
    tracemalloc.start()
    try:
        basis = kernel_basis(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.shape == (1013, 1023)
    assert peak < 1.5 * basis.data.nbytes, (peak, basis.data.nbytes)


def test_determinant_examples():
    assert determinant(FieldMatrix.identity(GF5, 4)) == 1
    assert determinant(FieldMatrix(GF3, [[1, 2], [2, 4]])) == 0
    assert determinant(FieldMatrix(GF3, [[0, 1], [1, 0]])) == 2  # swap sign
    with pytest.raises(ValueError):
        determinant(FieldMatrix(GF3, [[1, 2, 0]]))


def test_inverse_roundtrip_and_singular():
    m = FieldMatrix(GF5, [[1, 2], [3, 4]])
    inv = inverse(m)
    assert (m @ inv) == FieldMatrix.identity(GF5, 2)
    assert (inv @ m) == FieldMatrix.identity(GF5, 2)
    with pytest.raises(SingularMatrixError) as exc:
        inverse(FieldMatrix(GF3, [[1, 2], [2, 4]]))
    assert exc.value.det == 0


def test_char_poly_small_cases():
    # companion-style check: char poly of [[0,1],[1,0]] is x^2 - 1
    m = FieldMatrix(GF3, [[0, 1], [1, 0]])
    assert char_poly(m).coeffs == (2, 0, 1)
    ident = FieldMatrix.identity(GF2, 3)
    assert char_poly(ident).coeffs == (1, 1, 1, 1)  # (x-1)^3 = (x+1)^3 over GF(2)
    with pytest.raises(ValueError):
        char_poly(FieldMatrix(GF3, [[1, 2, 0]]))


def test_char_poly_constant_term_is_signed_det():
    m = FieldMatrix(GF5, [[1, 2, 0], [3, 4, 1], [0, 2, 2]])
    cp = char_poly(m)
    n = m.rows
    # det(xI - A) at x = 0 is (-1)^n det(A)
    assert cp.coeffs[0] == (pow(-1, n, 5) * determinant(m)) % 5


@settings(deadline=None)
@given(square_matrices())
def test_char_poly_matches_sympy(m):
    p = m.field.p
    x = sympy.Symbol("x")
    sym = sympy.Matrix(m.tolist()).charpoly(x).all_coeffs()  # descending
    expected = tuple(int(c) % p for c in reversed(sym))
    assert char_poly(m).coeffs == FieldPoly(expected, m.field).coeffs


@settings(deadline=None)
@given(square_pairs())
def test_determinant_is_multiplicative(pair):
    a, b = pair
    p = a.field.p
    assert determinant(a @ b) == (determinant(a) * determinant(b)) % p


@settings(deadline=None)
@given(eliminable_matrices())
def test_elimination_matches_sympy(m):
    p = m.field.p
    gf = sympy.GF(p)
    want, want_pivots = DomainMatrix.from_list(m.tolist(), gf).rref()
    got, rk, pivots = rref(m)
    # sympy prints symmetric representatives; int(x) % p is the residue
    assert got.tolist() == [[int(x) % p for x in row] for row in want.to_list()]
    assert pivots == tuple(want_pivots) and rk == len(want_pivots)
    basis = kernel_basis(m)
    assert basis.rows == m.cols - rk and not (m.data @ basis.data.T % p).any()
    k = min(m.shape)
    square = m.data[:k, :k]
    want_det = int(DomainMatrix.from_list(square.tolist(), gf).det()) % p
    assert determinant(FieldMatrix(m.field, square)) == want_det


@given(rect_matrices())
def test_rank_nullity(m):
    assert rref(m)[1] + kernel_basis(m).rows == m.cols


@settings(deadline=None)
@given(square_matrices(max_n=4))
def test_inverse_when_nonsingular(m):
    if determinant(m) == 0:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    assert (m @ inverse(m)) == FieldMatrix.identity(m.field, m.rows)


def test_cayley_hamilton_on_golden_transforms(golden):
    for t in golden.values():
        cp = char_poly(t.matrix)
        p = t.field.p
        n = t.n
        acc = np.zeros((n, n), dtype=np.int64)
        power = np.eye(n, dtype=np.int64)
        for c in cp.coeffs:
            acc = (acc + c * power) % p
            power = (power @ t.matrix.data) % p
        assert np.count_nonzero(acc) == 0, t.code.label


def test_exact_at_largest_accepted_modulus():
    # N*(p-1)**2 comes closest to 2**63 here (elimination products stay below
    # p**2); an int64 overflow in the elimination update or the matrix
    # product would show as a mismatch
    p = 2_097_143
    field = PrimeField(p)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        rows = rng.integers(0, p, size=(6, 6)).tolist()
        m = FieldMatrix(field, rows)
        assert determinant(m) == int(sympy.Matrix(rows).det()) % p
        v = rng.integers(0, p, size=6).tolist()
        want = [sum(a * b for a, b in zip(row, v)) % p for row in rows]
        assert m.mat_vec(v).tolist() == want


# The float tiers end where inner*(p-1)**2 + p passes 2**24 and 2**53: at
# p = 257 between inner 255 and 256, at p = 2 097 143 between 2048 and 2049.
# "top" and "odd" fill with p-1 and p-2 (p-1 if p = 2). The examples catch a
# float product past either end: at inner 263 the "odd" sums are odd and
# above 2**24, and at inner 2049 the "top" sums leave an odd residue, so
# q*p is odd and above 2**53. Rows and columns of 16 or 32 make the product
# large enough for a float path.
@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 7, 257, 2_097_143]),
    inner=st.sampled_from([0, 1, 2, 5, 17, 255, 256, 263, 2048, 2049]),
    rows=st.sampled_from([0, 1, 2, 16]),
    cols=st.sampled_from([0, 1, 2, 16]),
    ndims=st.sampled_from([(2, 2), (2, 1), (1, 2), (1, 1)]),
    fill=st.sampled_from(["random", "top", "odd"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=257, inner=255, rows=16, cols=16, ndims=(2, 2), fill="top", seed=0)
@example(p=257, inner=256, rows=16, cols=16, ndims=(2, 2), fill="top", seed=0)
@example(p=257, inner=263, rows=16, cols=16, ndims=(2, 2), fill="odd", seed=0)
@example(p=257, inner=263, rows=32, cols=1, ndims=(2, 1), fill="odd", seed=0)
@example(p=2_097_143, inner=2048, rows=2, cols=2, ndims=(2, 2), fill="top", seed=0)
@example(p=2_097_143, inner=2049, rows=2, cols=2, ndims=(2, 2), fill="top", seed=0)
@example(p=2_097_143, inner=2049, rows=2, cols=2, ndims=(2, 2), fill="odd", seed=0)
def test_mulmod_matches_python_ints(p, inner, rows, cols, ndims, fill, seed):
    shape_a = (rows, inner) if ndims[0] == 2 else (inner,)
    shape_b = (inner, cols) if ndims[1] == 2 else (inner,)
    if fill == "random":
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, size=shape_a, dtype=np.int64)
        b = rng.integers(0, p, size=shape_b, dtype=np.int64)
    else:
        top = p - 1 if fill == "top" or p == 2 else p - 2
        a = np.full(shape_a, top, dtype=np.int64)
        b = np.full(shape_b, top, dtype=np.int64)
    got = mulmod(a, b, p)
    assert got.dtype == np.int64
    assert got.tolist() == python_product(a, b, p)


@pytest.mark.parametrize("p", [2, 3, 7, 257, 4093])
def test_float32_reduction_is_exact_up_to_the_margin(p):
    # every integer sum the float32 tier can hand over, P + p <= 2**24; 4093 is
    # the largest prime for which the tier is reachable, (p-1)**2 + p <= 2**24
    step = 2**20
    for start in range(0, 2**24 - p + 1, step):
        sums = np.arange(start, min(start + step, 2**24 - p + 1), dtype=np.int64)
        assert np.array_equal(matrix._reduce(sums.astype(np.float32), p), sums % p)


@pytest.mark.parametrize("p", [4099, 65521, 2_097_143])
def test_float64_reduction_is_exact_up_to_the_margin(p):
    # float64 sums, P + p <= 2**53, reduced in int64: windows at the bottom,
    # across 2**31, past int32's range, and at the top; 4099 is the prime
    # after 4093, the first the float32 windows above cannot take
    step = 2**20
    for start in (0, 2**31 - step // 2, 2**53 - p + 1 - step):
        sums = np.arange(start, start + step, dtype=np.int64)
        assert np.array_equal(matrix._reduce(sums.astype(np.float64), p), sums % p)


class _PathChosen(Exception):
    pass


def test_mulmod_path_follows_the_bound(monkeypatch):
    # a plain product is an int64 product while inner*(p-1)**2 < 2**63 and is
    # refused from there; no shape and no modulus sends it to float BLAS, whose
    # results are the only ones _reduce is given
    reduced = []
    real_reduce = matrix._reduce
    monkeypatch.setattr(matrix, "_reduce", lambda x, p: reduced.append(x) or real_reduce(x, p))

    def path(a, b, p, expected=None):
        """The path mulmod takes, int64 or refused; `expected` is the product
        when python_product would be slow."""
        try:
            got = mulmod(a, b, p)
        except ValueError as exc:
            assert "overflow int64" in str(exc)
            return "refused"
        assert got.dtype == np.int64
        assert got.tolist() == (python_product(a, b, p) if expected is None else expected)
        return "int64"

    def full(shape, x):
        return np.full(shape, x, dtype=np.int64)

    # on both sides of the bounds 2**24 and 2**53 on inner*(p-1)**2 + p
    for p, inner in ((257, 255), (257, 256), (2_097_143, 2048), (2_097_143, 2049)):
        a, b = full((8, inner), p - 2), full((inner, 8), p - 2)
        assert path(a, b, p) == "int64", (p, inner)
    # the reduction margin at p = 2: 2**24 - 2 and 2**24 - 1 terms, zero-stride
    for inner in (2**24 - 2, 2**24 - 1):
        a = np.broadcast_to(np.int64(1), (1, inner))
        b = np.broadcast_to(np.int64(1), (inner,))
        assert path(a, b, 2, [inner % 2]) == "int64", inner
    # int64 up to 2**63, refused from there
    p = 2_097_143
    limit = -(-(2**63) // (p - 1) ** 2)  # least inner with inner * (p-1)**2 >= 2**63
    for inner, want in ((limit - 1, "int64"), (limit, "refused")):
        a = np.broadcast_to(np.int64(p - 1), (1, inner))
        b = np.broadcast_to(np.int64(p - 1), (inner,))
        assert path(a, b, p, [inner * (p - 1) ** 2 % p]) == want, inner
    # a Berkowitz step at N = 23, a block row times one vector, and a 64-vector
    # batch times a plain 400 x 400 matrix
    rng = np.random.default_rng(8)
    for a_shape, b_shape in (((23, 22), (22,)), ((4, 400), (400,)), ((64, 400), (400, 400))):
        a = rng.integers(0, 7, size=a_shape)
        b = rng.integers(0, 7, size=b_shape)
        assert path(a, b, 7, (np.matmul(a, b) % 7).tolist()) == "int64", (a_shape, b_shape)
    assert reduced == []


def test_plain_products_never_reach_float_blas(monkeypatch):
    # 64 x 400 times 400 x 400 at p = 7, once sent to float32 BLAS, and the same
    # through the transpose of a plain matrix: exact int64, never reduced as floats
    def refuse(product, p):
        raise AssertionError(f"float product {product.shape} {product.dtype} reduced")

    monkeypatch.setattr(matrix, "_reduce", refuse)
    rng = np.random.default_rng(19)
    rows = FieldMatrix(GF7, rng.integers(0, 7, size=(64, 400)))
    m = FieldMatrix(GF7, rng.integers(0, 7, size=(400, 400)))
    mt = m.transpose()
    assert holds_no_float_array(m) and holds_no_float_array(mt)
    for got, right in (((rows @ m).data, m.data), ((rows @ mt).data, m.data.T)):
        assert got.dtype == np.int64
        assert got[:2].tolist() == python_product(rows.data[:2], right, 7)
        assert np.array_equal(got, rows.data @ right % 7)
    assert mt.mat_vec(rows.data[0]).tolist() == python_product(m.data.T, rows.data[0], 7)


def python_chain(s, a, k, v, p):
    """(s*I + A@K) @ v % p with Python ints, A's rows past its own zero."""
    head = np.array(python_product(a, np.array(python_product(k, v, p)), p), dtype=object)
    out = s * v.astype(object)
    out[: len(head)] += head
    return (out % p).tolist()


def test_chained_mulmod_path_follows_the_bound(monkeypatch):
    # the factored operand s*I + A*K, A m x r and K r x N: float32 while
    # r*N*(p-1)**3 + (p-1)**2 + p <= 2**24, float64 while <= 2**53, K@v reduced
    # first past that; a batch's float sums are reduced by _reduce, in the
    # integer type as wide as the float, and one vector's in int64.
    # The operand converts A and K to its float type when it is built.
    floated, inner_calls, reduced = [], [], []
    real_mulmod, real_reduce = matrix.mulmod, matrix._reduce

    class Converted(np.ndarray):
        """A factor's int64 data, recording each conversion to another type."""

        def astype(self, dtype, *args, **kwargs):
            floated.append(np.dtype(dtype).name)
            if not compute:
                raise _PathChosen
            return np.asarray(super().astype(dtype, *args, **kwargs))

    def kernel_spy(a, b, p):
        inner_calls.append(a)
        if not compute:
            raise _PathChosen
        return real_mulmod(a, b, p)

    def reduce_spy(product, p):
        reduced.append(product.dtype.name)
        return real_reduce(product, p)

    monkeypatch.setattr(matrix, "mulmod", kernel_spy)  # the kernel calling itself
    monkeypatch.setattr(matrix, "_reduce", reduce_spy)

    def path(s, a, k, v, p, expected=None):
        """The chain's tier; `expected` is its value when python_chain would be slow."""
        floated.clear()
        inner_calls.clear()
        reduced.clear()
        field = PrimeField(p)
        try:
            a_m, k_m = (FieldMatrix._wrap(field, x.view(Converted)) for x in (a, k))
            operand = Factored(s, a_m, k_m)
        except _PathChosen:  # a float copy of A, only while not computing
            return floated[0]
        # the tier is fixed at build: both factors in one float type, or neither
        built = floated.copy()
        assert built == ([] if operand.floats is None else [operand.floats[0].dtype.name] * 2)
        try:
            got = real_mulmod(operand, v, p)
            assert got.dtype == np.int64
            assert got.tolist() == (python_chain(s, a, k, v, p) if expected is None else expected)
        except _PathChosen:  # K@v reduced first, only while not computing
            pass
        if operand.floats is None:
            assert inner_calls  # K@v reduced first, through the kernel itself
            return "reduced first"
        # a call converts neither factor again; the float tier reduces a batch
        # itself, in that type, and a vector never
        assert floated == built and not inner_calls
        assert reduced == ([built[0]] if v.ndim == 2 else []), reduced
        return built[0]

    def full(shape, x):
        # zero-stride: nothing of this size is allocated until a float copy
        return np.broadcast_to(np.int64(x), shape)

    compute = True
    rng = np.random.default_rng(12)
    # (p, m, r, N, batch columns or None, path); 216 = 6**3, 2**24 = 256**3 and
    # 2**53 = 32 * 65536**3; s*v adds (p-1)**2 and the margin p
    for p, m, r, n, cols, want in (
        (7, 4, 4, 19418, None, "float32"),  # 4 * 19418 * 216 + 36 + 7 <= 2**24
        (7, 4, 4, 19419, None, "float64"),
        (7, 19418, 4, 19418, None, "float32"),  # m = N, as for cyclic forms
        (7, 2, 4, 19418, 3, "float32"),
        (7, 2, 4, 19419, 3, "float64"),
        (257, 1, 1, 1, None, "float64"),  # the chain alone is 2**24, s*v is past it
        (257, 2, 1, 2, 2, "float64"),
        (65537, 1, 31, 1, None, "float64"),  # 31 * 2**48 + 2**32 + 65537 <= 2**53
        (65537, 2, 1, 31, 4, "float64"),
        (65537, 3, 4, 8, None, "reduced first"),  # the chain alone is 2**53
        (65537, 11, 3, 11, None, "reduced first"),
        (65537, 2, 3, 11, 4, "reduced first"),
        (2_097_143, 1, 1, 1, None, "reduced first"),
    ):
        v_shape = (n,) if cols is None else (n, cols)
        for fill in ("top", "random"):
            s = int(rng.integers(0, p))
            if fill == "top":
                s = p - 1
                a, k, v = full((m, r), p - 1), full((r, n), p - 1), full(v_shape, p - 1)
            else:
                a, k = rng.integers(0, p, size=(m, r)), rng.integers(0, p, size=(r, n))
                v = rng.integers(0, p, size=v_shape)
            assert path(s, a, k, v, p) == want, (p, m, r, n, cols, fill)
    # the unit scalar, where s*v is a copy of v, filled with p - 1, on both
    # sides of each bound; at p = 2 a mask reduces the sums
    for p, m, r, n, cols, want in (
        (7, 4, 4, 19418, None, "float32"),
        (7, 2, 4, 19418, 3, "float32"),
        (7, 4, 4, 19419, None, "float64"),
        (7, 2, 4, 19419, 3, "float64"),
        (65537, 3, 4, 8, None, "reduced first"),
        (65537, 2, 3, 11, 4, "reduced first"),
        (2, 3, 5, 40, None, "float32"),
        (2, 3, 5, 40, 7, "float32"),
        (2, 40, 5, 40, 7, "float32"),
    ):
        v_shape = (n,) if cols is None else (n, cols)
        a, k, v = full((m, r), p - 1), full((r, n), p - 1), full(v_shape, p - 1)
        assert path(1, a, k, v, p) == want, (p, m, r, n, cols)
    # p = 2 at the float32 threshold: r*N = 4094 * 4098 = 2**24 - 4, so the
    # bound is 2**24 - 1 and the largest sum, 1 + r*N, is 2**24 - 3. Filled
    # with ones, the chain is 1 + r*N in A's one row and 1 below it: the value
    # of python_chain, which would take r*N Python products per column here
    for cols in (None, 64):
        v_shape = (4098,) if cols is None else (4098, cols)
        expected = np.ones(v_shape, dtype=np.int64)
        expected[0] = (1 + 4094 * 4098) % 2
        a, k, v = full((1, 4094), 1), full((4094, 4098), 1), full(v_shape, 1)
        assert path(1, a, k, v, 2, expected.tolist()) == "float32", cols
    # at p = 2 the float tiers end at r*N = 2**24 - 3 and 2**53 - 3; the spy
    # stops before any float copy of these shapes is made
    compute = False
    for r, n, cols, want in (
        (1, 2**24 - 3, None, "float32"),
        (1, 2**24 - 2, None, "float64"),
        (1, 2**24 - 2, 64, "float64"),
        (2**26, 2**27 - 1, None, "float64"),
        (1, 2**53 - 3, None, "float64"),
        (1, 2**53 - 2, None, "reduced first"),
        (2**27, 2**27, 64, "reduced first"),
    ):
        v_shape = (n,) if cols is None else (n, cols)
        assert path(1, full((1, r), 1), full((r, n), 1), full(v_shape, 1), 2) == want, (r, n)


@pytest.mark.parametrize(
    "build,tier",
    [
        (lambda: build_standard(hamming_parity_check(7, 4), 3), "float32"),
        (lambda: build_standard(hamming_parity_check(257, 2), 2), "float64"),
        (lambda: build_cyclic(cyclic_hamming_spec(29, 3), 1), "float64"),
        (
            lambda: build_appendix_systematic(
                FieldMatrix(PrimeField(2097143), [[3, 1], [5, 2097142], [0, 7]]), 5
            ),
            None,
        ),
    ],
    ids=["h400-lambda3", "h258-p257-lambda2", "c871-p29", "appendix-p2097143"],
)
def test_the_int64_image_agrees_with_every_tier(build, tier):
    # Factored.exact_image is mulmod's tier past 2**53 and the route of
    # first_column and of the constant-sequence row sums; in every tier the
    # chain and that image give python_chain's value, one vector or a batch,
    # and the image of e_0 and of the ones vector are the dense view's first
    # column and row sums
    t = build()
    f, p, n = t._forward, t.field.p, t.n
    assert (None if f.floats is None else f.floats[0].dtype.name) == tier
    rng = np.random.default_rng(34)
    v, batch = rng.integers(0, p, size=n), rng.integers(0, p, size=(3, n))
    for x in (v, batch.T):
        want = python_chain(f.scalar, f.a.data, f.k.data, x, p)
        assert f.exact_image(x).tolist() == want
        assert t.apply(x.T).T.tolist() == want
    dense = t.matrix.data
    assert np.array_equal(t.first_column(), dense[:, 0])
    row_sums = f.exact_image(np.ones(n, dtype=np.int64))
    assert np.array_equal(row_sums, dense.sum(axis=1) % p)


@pytest.mark.parametrize(
    "p,m,form,tier",
    [(7, 4, "standard", "float32"), (2, 8, "cyclic", "float32"), (257, 2, "standard", "float64")],
    ids=["h400", "c255", "h258-p257"],
)
def test_an_operand_converts_its_factors_once(monkeypatch, p, m, form, tier):
    # the tier and the float copies of A and K are fixed when the operand is
    # built; no call, single or batched, through apply or a view's transpose,
    # replaces them, and no matrix holds a float copy of T
    if form == "cyclic":
        t = build_cyclic(cyclic_hamming_spec(p, m), 1)
    else:
        t = build_standard(hamming_parity_check(p, m), 3)
    sides = (t._forward, t._inverse)
    views = (t.matrix, t.inverse_matrix)  # forming T's rows, A@K, is not a call
    built = [side.floats for side in sides]
    for side in sides:
        assert [f.dtype.name for f in side.floats] == [tier, tier]
        assert [f.shape for f in side.floats] == [side.a.shape, side.k.shape]
        assert not any(f.flags.writeable for f in side.floats)
    # the float arrays a call reduces are batches, (N, rows), never N x N:
    # apply's two and rows @ view.T's two; view @ X and mat_vec are int64
    reduced, real_reduce = [], matrix._reduce
    monkeypatch.setattr(matrix, "_reduce", lambda x, q: reduced.append(x.shape) or real_reduce(x, q))
    rows = np.random.default_rng(p).integers(0, p, size=(64, t.n))
    assert np.array_equal(t.apply_inverse(t.apply(rows)), rows)
    assert np.array_equal(t.apply_inverse(t.apply(rows[0])), rows[0])
    for view in views:
        product = FieldMatrix(t.field, rows) @ view.transpose()
        assert np.array_equal(view.mat_vec(rows[0]), product.data[0])
        assert np.array_equal((view @ FieldMatrix(t.field, rows.T)).data, product.data.T)
        assert holds_no_float_array(view) and holds_no_float_array(view.transpose())
    assert reduced == [(t.n, 64)] * 4
    assert all(side.floats is floats for side, floats in zip(sides, built))
    for side in sides:
        assert [f.dtype.name for f in side.floats] == [tier, tier]
        assert not any(f.flags.writeable for f in side.floats)


def test_mulmod_refuses_what_int64_cannot_hold():
    # zero-stride operands: the shape alone decides, no memory is used
    p = 2_097_143
    limit = -(-(2**63) // (p - 1) ** 2)  # least inner with inner * (p-1)**2 >= 2**63
    for inner in (limit - 1, limit):
        a = np.broadcast_to(np.int64(p - 1), (1, inner))
        b = np.broadcast_to(np.int64(p - 1), (inner,))
        if inner < limit:
            assert mulmod(a, b, p).tolist() == [inner * (p - 1) ** 2 % p]
        else:
            with pytest.raises(ValueError, match="overflow int64"):
                mulmod(a, b, p)


@pytest.mark.parametrize("p,n", [(7, 30), (2_097_143, 2100)])
def test_transpose_shares_storage_and_products_agree(p, n):
    field = PrimeField(p)
    rng = np.random.default_rng(n)
    m = FieldMatrix(field, rng.integers(0, p, size=(3, n)))
    mt = m.transpose()
    assert np.array_equal(mt.data, m.data.T)
    assert np.shares_memory(mt.data, m.data)
    assert mt.data.dtype == np.int64
    assert holds_no_float_array(m) and holds_no_float_array(mt)
    for arr in (m.data, mt.data):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    x = FieldMatrix(field, rng.integers(0, p, size=(2, n)))
    y = FieldMatrix(field, rng.integers(0, p, size=(3, 2)))
    v = rng.integers(0, p, size=n)
    assert (x @ mt).tolist() == python_product(x.data, m.data.T, p)
    assert (m @ mt).tolist() == python_product(m.data, m.data.T, p)
    assert (mt @ y).tolist() == python_product(m.data.T, y.data, p)
    assert m.mat_vec(v).tolist() == python_product(m.data, v, p)


def _laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    """`values` (1-D or 2-D int64) in one memory layout, with equal entries."""
    if layout == "c-ordered":
        return np.ascontiguousarray(values)
    if layout == "transposed":  # the transpose of a C-ordered array: F-contiguous
        return np.ascontiguousarray(values.T).T
    if layout == "strided":
        big = np.zeros(tuple(3 * d for d in values.shape), dtype=np.int64)
        view = big[tuple(slice(1, None, 3) for _ in values.shape)]
        view[...] = values
        return view
    # zero-stride: every row, or every entry of a vector, is the first
    return np.broadcast_to(values[:1], values.shape)


LAYOUTS = ("c-ordered", "transposed", "strided", "broadcast")


# (rows, inner, cols) per operand dimensions. The ids name the path a plain
# product of these shapes took while plain products could run in float BLAS:
# the larger shapes went to float32 at p = 7 and to float64 at p = 4093. Every
# case now runs in int64.
FLOAT_SHAPES = {(2, 2): (16, 40, 130), (2, 1): (16, 520, 1), (1, 2): (1, 64, 130)}
INT64_SHAPES = {(2, 2): (4, 20, 30), (2, 1): (4, 20, 1), (1, 2): (1, 20, 30)}


@pytest.mark.parametrize("tier,p", [("float32", 7), ("float64", 4093), ("int64", 4093)])
@pytest.mark.parametrize("ndims", [(2, 2), (2, 1), (1, 2)], ids=["2d@2d", "2d@1d", "1d@2d"])
@pytest.mark.parametrize("layout_b", LAYOUTS)
@pytest.mark.parametrize("layout_a", LAYOUTS)
def test_mulmod_is_exact_in_every_layout(monkeypatch, tier, p, ndims, layout_a, layout_b):
    field = PrimeField(p)
    rows, inner, cols = (INT64_SHAPES if tier == "int64" else FLOAT_SHAPES)[ndims]
    rng = np.random.default_rng([rows, inner, p])
    a_values = rng.integers(0, p, size=(rows, inner) if ndims[0] == 2 else inner)
    b_values = rng.integers(0, p, size=(inner, cols) if ndims[1] == 2 else inner)
    a, b = _laid_out(a_values, layout_a), _laid_out(b_values, layout_b)
    expected = python_product(a, b, p)
    kept = a.copy(), b.copy()
    reduced = []
    real_reduce = matrix._reduce
    monkeypatch.setattr(matrix, "_reduce", lambda x, q: reduced.append(x) or real_reduce(x, q))
    # the raw arrays while still writable, then each 2-D operand as a matrix
    # over the same array (made read-only)
    for wrap in (False, True):
        x, y = (FieldMatrix._wrap(field, z) if wrap and z.ndim == 2 else z for z in (a, b))
        got = mulmod(x, y, p)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert reduced == []
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])
        for m in (x, y):
            if isinstance(m, FieldMatrix):
                assert not m.data.flags.writeable and holds_no_float_array(m)


@pytest.mark.parametrize("p,m,form", [(7, 4, "standard"), (2, 8, "cyclic")], ids=["h400", "c255"])
def test_batches_of_64_through_the_transpose_match_apply(monkeypatch, p, m, form):
    # the batched product of the apply-stream benchmark: the transposed dense
    # view keeps T's factors, and the product runs through them
    if form == "cyclic":
        t = build_cyclic(cyclic_hamming_spec(p, m), 1)
    else:
        t = build_standard(hamming_parity_check(p, m), 3)
    n = t.n
    mt = t.matrix.transpose()
    assert mt._factors == (t._forward, True)
    rows = np.random.default_rng(n).integers(0, p, size=(64, n))
    kept = rows.copy()
    operand = t._forward
    built = operand.floats
    reduced, real_reduce = [], matrix._reduce
    monkeypatch.setattr(matrix, "_reduce", lambda x, q: reduced.append(x.shape) or real_reduce(x, q))
    product = FieldMatrix(t.field, rows) @ mt
    # only A and K go to BLAS, as the float copies the operand made when it was
    # built: O(rN) per row, no conversion per call, and no float copy of T; the
    # one float array reduced is the batch
    assert operand.floats is built
    assert [x.shape for x in operand.floats] == [operand.a.shape, operand.k.shape]
    assert reduced == [(n, 64)]
    assert holds_no_float_array(t.matrix) and holds_no_float_array(mt)
    monkeypatch.undo()
    assert np.array_equal(rows, kept)
    assert product.data.dtype == np.int64
    assert product._factors is None
    assert product.data[:2].tolist() == python_product(rows[:2], t.matrix.data.T, p)
    assert np.array_equal(product.data, rows @ t.matrix.data.T % p)
    for row, got in zip(rows, product.data):
        assert np.array_equal(got, t.apply(row))
    assert np.array_equal(product.data, t.apply(rows))
    assert not mt.data.flags.writeable and not t.matrix.data.flags.writeable


def test_batch_rows_match_apply(golden):
    rng = np.random.default_rng(5)
    for t in golden.values():
        rows = rng.integers(0, t.field.p, size=(6, t.n))
        product = FieldMatrix(t.field, rows) @ t.matrix.transpose()
        for row, got in zip(rows, product.data):
            assert np.array_equal(got, t.apply(row)), t.code.label


def test_multiplicative_order():
    assert multiplicative_order(FieldMatrix.identity(GF3, 4)) == 1
    assert multiplicative_order(FieldMatrix(GF3, [[0, 1], [1, 0]])) == 2
    assert multiplicative_order(FieldMatrix(GF3, [[2, 0], [0, 1]])) == 2
    with pytest.raises(SingularMatrixError):
        multiplicative_order(FieldMatrix(GF3, [[0, 0], [0, 0]]))
    # cap reached -> None
    m = FieldMatrix(GF5, [[2, 0], [0, 1]])  # order 4
    assert multiplicative_order(m, cap=3) is None
    assert multiplicative_order(m, cap=4) == 4


def test_circulant_construction():
    got = circulant_from_first_row(GF2, (1, 0, 1, 1, 1, 0, 0))
    assert got == FieldMatrix(GF2, reference.CYCLIC_HAMMING7_INFLATED)
    # entry law: (i, j) -> row0[(j - i) mod n]
    row0 = (0, 1, 2, 0, 1)
    c = circulant_from_first_row(GF3, row0)
    for i in range(5):
        for j in range(5):
            assert c[i, j] == row0[(j - i) % 5]


@given(
    st.sampled_from([2, 3]),
    st.integers(2, 11),
    st.data(),
)
def test_circulant_singular_iff_common_factor(p, n, data):
    field = PrimeField(p)
    row = data.draw(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    )
    c = circulant_from_first_row(field, row)
    # the circulant of first row r is invertible exactly when the polynomial
    # r_0 + r_{n-1} x + ... (the first *column*) is a unit mod x^n - 1
    col_poly = FieldPoly(tuple(c.data[:, 0].tolist()), field)
    modulus = FieldPoly.monomial(field, n) - FieldPoly.one(field)
    g = poly_gcd(col_poly, modulus) if not col_poly.is_zero() else modulus
    assert (determinant(c) == 0) == (g.degree > 0)
    # the ring gives the same determinant as a resultant, and the inverse
    # circulant's first column as c^-1
    ring = CyclicRing(n, field)
    det, c_inv = ring_inverse(ring, col_poly)
    assert det == determinant(c)
    assert (c_inv is None) == (det == 0)
    if c_inv is not None:
        assert ring.mul(col_poly, c_inv) == FieldPoly.one(field)
        assert FieldPoly(tuple(inverse(c).data[:, 0].tolist()), field) == c_inv


def test_text_serialization_roundtrip():
    m = FieldMatrix(GF3, reference.TERNARY_HAMMING13_PARITY)
    text = format_matrix_text(m)
    assert text.splitlines()[0] == "3 3 13"
    assert parse_matrix(text) == m
    with_header = format_matrix_text(m, header="transform form=cyclic lambda=1 code=x")
    assert parse_matrix(with_header) == m


def test_json_serialization_roundtrip():
    m = FieldMatrix(GF2, reference.HAMMING74_TRANSFORM)
    assert parse_matrix(format_matrix_json(m)) == m


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2 2\n1 0\n")  # missing row
    with pytest.raises(ValueError):
        parse_matrix("2 1 3\n1 0\n")  # short row
    with pytest.raises(ValueError, match="expected dimension line"):
        parse_matrix("2 2\n1 0\n0 1\n")  # bad dimension line
    with pytest.raises(ValueError):
        parse_matrix('{"rows": [[1]]}')  # missing p
    with pytest.raises(ValueError):
        parse_matrix("header only\n")
    with pytest.raises(ValueError, match="invalid literal"):
        parse_matrix("2 2 2\n1 0\n0 x\n")  # non-integer token
    with pytest.raises(ValueError, match="int64"):
        parse_matrix("2 1 2\n1 -9223372036854775809\n")
    assert parse_matrix("7 2 2\n-1 9223372036854775807\n0 +3\n").tolist() == [[6, 0], [0, 3]]
    # a dimension line is one whose tokens int() all accepts, with or without a
    # header above it, so a leading + is a sign there, not a header
    for text in ("+7 2 2\n1 0\n0 1\n", "transform form=cyclic\n+7 2 2\n1 0\n0 1\n"):
        assert parse_matrix(text) == FieldMatrix(PrimeField(7), [[1, 0], [0, 1]]), text
