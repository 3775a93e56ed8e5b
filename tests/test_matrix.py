import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from perfectnt import matrix, reference
from perfectnt.gf import ModulusMismatchError, PrimeField
from perfectnt.matrix import (
    FieldMatrix,
    SingularMatrixError,
    as_vector,
    char_poly,
    circulant_from_first_row,
    determinant,
    format_matrix_json,
    format_matrix_text,
    hstack,
    inverse,
    kernel_basis,
    mulmod,
    multiplicative_order,
    parse_matrix,
    rank,
    rref,
    vstack,
)
from perfectnt.poly import CyclicRing, FieldPoly

from helpers import poly_gcd

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


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


def test_shape_helpers():
    m = FieldMatrix(GF2, [[1, 0, 1], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.shape == (2, 3)
    assert m.row(1).tolist() == [0, 1, 1]
    assert m.column(2).tolist() == [1, 1]
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


def test_stacking():
    a = FieldMatrix(GF2, [[1, 0]])
    b = FieldMatrix(GF2, [[0, 1]])
    assert vstack(a, b).tolist() == [[1, 0], [0, 1]]
    assert hstack(a, b).tolist() == [[1, 0, 0, 1]]
    with pytest.raises(ValueError):
        vstack(a, FieldMatrix(GF2, [[1]]))
    with pytest.raises(ValueError):
        hstack(a, FieldMatrix(GF2, [[1, 0], [0, 1]]))


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
    assert rank(m) + kernel_basis(m).rows == m.cols


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


def python_product(a, b, p):
    """(a @ b) % p with Python ints, for 1-D or 2-D operands."""
    rows = a.tolist() if a.ndim == 2 else [a.tolist()]
    cols = b.T.tolist() if b.ndim == 2 else [b.tolist()]
    out = [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in rows]
    if b.ndim == 1:
        out = [row[0] for row in out]
    return out if a.ndim == 2 else out[0]


# 2048 * (p-1)**2 < 2**53 <= 2049 * (p-1)**2 at p = 2 097 143
@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([2, 7, 2_097_143]),
    inner=st.sampled_from([0, 1, 2, 5, 17, 2048, 2049]),
    rows=st.integers(0, 2),
    cols=st.integers(0, 2),
    ndims=st.sampled_from([(2, 2), (2, 1), (1, 2), (1, 1)]),
    fill=st.sampled_from(["random", "top", "odd"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mulmod_matches_python_ints(p, inner, rows, cols, ndims, fill, seed):
    # "top" and "odd" fill with p-1 and p-2 (p-1 if p = 2): with p-2 the sum at
    # inner 2049 is odd and above 2**53, which a float64 product would round
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


def test_mulmod_path_follows_the_bound(monkeypatch):
    p = 2_097_143
    floated = []
    real = matrix._as_floats
    monkeypatch.setattr(matrix, "_as_floats", lambda x: floated.append(x) or real(x))
    for inner, float_path in ((2048, True), (2049, False)):
        floated.clear()
        a = np.full((2, inner), p - 2, dtype=np.int64)
        b = np.full((inner, 2), p - 2, dtype=np.int64)
        assert mulmod(a, b, p).tolist() == python_product(a, b, p)
        assert bool(floated) == float_path, inner
    # inside the bound the shape decides: a Berkowitz step at N = 23 and a block
    # row times one vector are cheaper in int64, and a 64-vector batch through
    # an N = 400 transform stays on float64 BLAS
    rng = np.random.default_rng(8)
    for a_shape, b_shape, float_path in (
        ((23, 22), (22,), False),
        ((4, 400), (400,), False),
        ((64, 400), (400, 400), True),
    ):
        floated.clear()
        a = rng.integers(0, 7, size=a_shape)
        b = rng.integers(0, 7, size=b_shape)
        assert np.array_equal(mulmod(a, b, 7), np.matmul(a, b) % 7)
        assert bool(floated) == float_path, (a_shape, b_shape)
    assert 23 * 22 < matrix.FLOAT_MIN_MACS <= 64 * 400 * 400


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
    assert np.shares_memory(mt._float_data(), m._float_data())
    for arr in (mt.data, mt._float_data()):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    x = FieldMatrix(field, rng.integers(0, p, size=(2, n)))
    y = FieldMatrix(field, rng.integers(0, p, size=(3, 2)))
    v = rng.integers(0, p, size=n)
    assert (x @ mt).tolist() == python_product(x.data, m.data.T, p)
    assert (m @ mt).tolist() == python_product(m.data, m.data.T, p)
    assert (mt @ y).tolist() == python_product(m.data.T, y.data, p)
    assert m.mat_vec(v).tolist() == python_product(m.data, v, p)


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
    det, c_inv = ring.inverse(col_poly)
    assert det == determinant(c)
    assert (c_inv is None) == (det == 0)
    if c_inv is not None:
        assert ring.mul(col_poly, c_inv) == FieldPoly.one(field)
        assert inverse(c).data[:, 0].tolist() == list(ring.to_vector(c_inv))


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
    with pytest.raises(ValueError):
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
