"""Dense linear algebra over GF(p), backed by small integer numpy arrays.

Entries are canonical residues held in read-only int64 arrays. Every
product-then-reduce in the package goes through one kernel, :func:`mulmod`,
which reduces once after the whole product. A dot product of length N of
residues is at most N*(p-1)**2:

- while N*(p-1)**2 < 2**63, a plain product is an int64 product;
  :class:`PrimeField` refuses p >= 2**21 (:data:`perfectnt.gf.MAX_MODULUS`),
  so this holds for every inner dimension below 2**21;
- otherwise the product is refused with ValueError.

Float BLAS belongs to the factored chain of a transform alone. A transform
T = s*I + A*K (A m x r, K r x N, the rows of A past m zero) is applied
without forming T: :func:`mulmod` takes it as a :class:`Factored` operand
and computes s*v + A*(K*v), O(rN) per vector. An entry of K*v is a sum of N
products of residues, at most N*(p-1)**2, and an entry of A*(K*v) a sum of
r products of a residue and such an entry, at most r*N*(p-1)**3; no partial
sum of either product exceeds that bound, and s*v adds at most (p-1)**2.
So while r*N*(p-1)**3 + (p-1)**2 + p <= 2**24 the chain runs in float32,
and while it is <= 2**53 in float64.

A float type with a t-bit significand holds every integer up to 2**t, so
every partial sum, and the sum P = s*v + A*(K*v), is an exact float integer
in any summation order (the delayed reduction of FFLAS-FFPACK, Dumas,
Giorgi and Pernet, ACM TOMS 2008). P is reduced in integers: 0 <= P < 2**t,
so P converts exactly to the signed integer type as wide as the float
(int32 for float32, int64 for float64), and there P % p is P & 1 at p = 2,
else P - (P // p)*p, // being the exact quotient of non-negative integers.
The margin of p in the bound is slack for this reduction; it is kept so
that no operand changes tier.

The operand resolves its tier once, when it is built, and keeps read-only
copies of A and K in its float type. A batch enters that type through int32,
which holds every residue, and is reduced as above; a single vector runs as
two matrix-vector products (sgemv or dgemv, through ``.dot``) and its int64
sum is reduced by the same integer step. Past 2**53 the chain is
``Factored.exact_image``, two int64 products with inner dimensions N and r,
K*v reduced first; a transform's first column and row sums use it at every tier.

The dense views of a transform, ``t.matrix`` and ``t.inverse_matrix``, are
int64 matrices: T @ b, T.mat_vec(v) and every other operation on a view run
the plain product above, which shares no arithmetic with the factored chain,
so comparing the two cross-checks the chain. A view and its transpose remember
the factors they were formed from, and only one product reads them: a @ T.T
is (T @ a.T).T through the chain, so no N x N product is made for it.

RREF, determinant and inverse share one Gauss-Jordan elimination
(:func:`_gauss_jordan`), which pivots with modular inverses. Its update
(:func:`_clear_column`) is elementwise and keeps its products below p**2.
The characteristic polynomial uses the Berkowitz method, which is
division-free, so it is exact over any prime field without special-casing
small p.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .gf import ModulusMismatchError, PrimeField
from .poly import FieldPoly

# (float type, 2**significand bits): the float tiers of the factored chain,
# narrowest first
_FLOAT_TIERS = ((np.float32, 2**24), (np.float64, 2**53))

class SingularMatrixError(ValueError):
    """Raised when a singular matrix is inverted; carries the determinant."""

    def __init__(self, message: str, det: int = 0):
        super().__init__(message)
        self.det = det


class FieldMatrix:
    """Immutable dense matrix over GF(p)."""

    __slots__ = ("field", "data", "_factors")

    def __init__(self, field: PrimeField, data):
        self._set(field, _residues(field, data, (2,), "matrix data must be 2-dimensional"))

    @classmethod
    def _wrap(cls, field: PrimeField, data: np.ndarray, *, factors=None) -> "FieldMatrix":
        """A matrix over `data`, which already holds canonical int64 residues.

        `factors` is given for a transform's dense view only: (operand,
        transposed), the Factored operand that `data` or its transpose equals.
        """
        m = object.__new__(cls)
        m._set(field, data, factors)
        return m

    def _set(self, field: PrimeField, data: np.ndarray, factors=None) -> None:
        data.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    # -- shape and access -------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __getitem__(self, idx):
        return self.data[idx]

    def transpose(self) -> "FieldMatrix":
        """The transpose, a view of this matrix's int64 data.

        The transpose of a transform's dense view keeps its factors, marked
        transposed.
        """
        if self._factors is None:
            return FieldMatrix._wrap(self.field, self.data.T)
        operand, transposed = self._factors
        return FieldMatrix._wrap(self.field, self.data.T, factors=(operand, not transposed))

    def tolist(self) -> list[list[int]]:
        return self.data.tolist()

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "FieldMatrix") -> None:
        if not isinstance(other, FieldMatrix):
            raise TypeError(f"expected FieldMatrix, got {type(other).__name__}")
        if other.field != self.field:
            raise ModulusMismatchError(
                f"cannot combine matrices over {self.field!r} and {other.field!r}"
            )

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FieldMatrix(self.field, self.data + other.data)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FieldMatrix(self.field, self.data - other.data)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}: inner dimensions differ"
            )
        return FieldMatrix._wrap(self.field, mulmod(self, other, self.field.p))

    def scaled(self, c: int) -> "FieldMatrix":
        return FieldMatrix(self.field, self.data * (c % self.field.p))

    def mat_vec(self, v) -> np.ndarray:
        """Matrix-vector product; returns a 1-D residue array."""
        vec = as_vector(self.field, v)
        if vec.shape[0] != self.cols:
            raise ValueError(f"expected a length-{self.cols} vector, got {vec.shape[0]}")
        return mulmod(self, vec, self.field.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.data, other.data)

    __hash__ = None

    def __repr__(self) -> str:
        return f"FieldMatrix({self.field!r}, shape={self.shape})"


class Factored:
    """scalar*I + A*K, N x N, with A (m x r) its nonzero leading rows and K r x N.

    The factored operand of :func:`mulmod`. Its tier is resolved here, once,
    from r*N*(p-1)**3 + (p-1)**2 + p (see the module docstring): `floats` holds
    read-only copies of A and K in that float type, or is None past 2**53,
    where K*v is reduced first.
    """

    def __init__(self, scalar: int, a: FieldMatrix, k: FieldMatrix):
        self.scalar, self.a, self.k, self.p = scalar, a, k, k.field.p
        r, n = k.shape
        bound = r * n * (self.p - 1) ** 3 + (self.p - 1) ** 2 + self.p
        dtype = next((t for t, limit in _FLOAT_TIERS if bound <= limit), None)
        self.floats = None if dtype is None else tuple(x.data.astype(dtype) for x in (a, k))
        for floats in self.floats or ():
            floats.setflags(write=False)

    def exact_image(self, b: np.ndarray) -> np.ndarray:
        """scalar*b + A*(K*b), b a vector or N rows, in int64 products only: it
        shares no float product with the float tiers, so it cross-checks them."""
        return self._plus_scaled(b, mulmod(self.a, mulmod(self.k, b, self.p), self.p))

    def _plus_scaled(self, b: np.ndarray, chained: np.ndarray) -> np.ndarray:
        """scalar*b + chained, A*(K*b)'s m leading rows, reduced."""
        out = b.copy(order="K") if self.scalar == 1 else self.scalar * b
        out[: len(chained)] += chained
        return _remainder(out, self.p)

    @cached_property
    def dense(self) -> FieldMatrix:
        """The N x N matrix scalar*I + A*K, A's rows past m zero, in int64.

        It keeps this operand for its transpose: mulmod multiplies a @ T.T
        through it, and every other product with T is a plain one.
        """
        data = mulmod(self.a, self.k, self.p)
        m, n = data.shape
        if m < n:
            data = np.vstack([data, np.zeros((n - m, n), dtype=np.int64)])
        d = np.arange(n)
        data[d, d] = (data[d, d] + self.scalar) % self.p
        return FieldMatrix._wrap(self.k.field, data, factors=(self, False))


_INT64_RANGE = "entries must lie in the int64 range [-2**63, 2**63)"


def _residues(field: PrimeField, data, ndims: tuple[int, ...], shape_error: str) -> np.ndarray:
    """`data` as a new int64 array of canonical residues, with a dimension count in `ndims`.

    Entries must be integers: floats, bools, strings and other objects are
    refused, not truncated or parsed. The array is always a copy, so the
    caller's array is never aliased and stays writable.
    """
    arr = data if isinstance(data, np.ndarray) else np.array(data, dtype=object)
    kind = arr.dtype.kind
    if not (kind == "i" or kind == "u" and arr.dtype.itemsize < 8):
        # as Python objects: uint64 entries past 2**63 then overflow below
        arr = arr.astype(object, copy=False)
        bad = {t.__name__ for t in set(map(type, arr.flat)) if not _is_int_type(t)}
        if bad:  # the rows of a ragged list stay lists
            names = ", ".join(sorted(bad))
            raise ValueError(f"entries must be integers, in rows of equal length; got {names}")
    try:
        arr = np.array(arr, dtype=np.int64)
    except OverflowError:
        raise ValueError(_INT64_RANGE) from None
    if arr.ndim not in ndims:
        raise ValueError(f"{shape_error}, got shape {arr.shape}")
    # one unsigned maximum: negative entries wrap above 2**63
    if arr.size and arr.view(np.uint64).max() >= field.p:
        np.remainder(arr, field.p, out=arr)
    return arr


def _is_int_type(t: type) -> bool:
    """An integer type; bool subclasses int, but True is not an entry."""
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def mulmod(a, b, p: int) -> np.ndarray:
    """(a @ b) % p as canonical int64 residues: the package's one product kernel.

    Each operand is an int64 array of residues or a FieldMatrix. The product
    runs in int64 while the bound on every partial sum, inner * (p-1)**2, is
    below 2**63, and is refused with ValueError from there (see the module
    docstring).

    `a` may also be a Factored operand s*I + A@K, and `b` an int64 array with
    N rows: the chain s*b + A@(K@b), in the tier the operand resolved. The
    transpose of a transform's dense view, on the right, is multiplied
    through its operand: a @ T.T as (T @ a.T).T. A dense view itself
    multiplies as a plain matrix.
    """
    if isinstance(a, Factored):
        if a.floats is None:
            return a.exact_image(b)
        fa, fk = a.floats
        if b.ndim == 1:
            return a._plus_scaled(b, fa.dot(fk.dot(b.astype(fk.dtype))).astype(np.int64))
        # residues lie below 2**21, so the int32 step is exact, and numpy
        # converts int32 to float in a vector loop, int64 not
        fb = b.astype(np.int32).astype(fk.dtype)
        # a batch arrives as rows.T: formed row by row, the chain has
        # fb's memory order, and the sum below runs over both in step
        chained = ((fb.T @ fk.T) @ fa.T).T
        if a.scalar != 1:
            fb *= a.scalar
        fb[: len(chained)] += chained
        return _reduce(fb, p)
    if isinstance(b, FieldMatrix) and b._factors is not None and b._factors[1]:
        return mulmod(b._factors[0], _as_ints(a).T, p).T
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"a product of inner dimension {inner} over GF({p}) would overflow int64")
    return _as_ints(a) @ _as_ints(b) % p


def _reduce(product: np.ndarray, p: int) -> np.ndarray:
    """Residues of exact float integer sums 0 <= P < 2**t, t the significand width.

    The sums convert exactly to the integer type as wide as the float, int32
    for float32 (2**24 < 2**31) and int64 for float64 (2**53 < 2**63), where
    they are reduced (see the module docstring).
    """
    ints = product.astype(np.int32 if product.dtype == np.float32 else np.int64)
    return _remainder(ints, p).astype(np.int64, copy=False)


def _remainder(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for an integer array x >= 0, in place: a mask at p = 2, else
    x - (x // p)*p, whose floor division by a scalar numpy runs as a multiply
    and a shift."""
    if p == 2:
        return np.bitwise_and(x, 1, out=x)
    quotient = x // p
    quotient *= p
    x -= quotient
    return x


def _as_ints(x) -> np.ndarray:
    return x.data if isinstance(x, FieldMatrix) else x


def as_vector(field: PrimeField, v) -> np.ndarray:
    """Coerce a sequence to a 1-D canonical-residue array over the field."""
    return _residues(field, v, (1,), "expected a 1-D vector")


def as_vectors(field: PrimeField, v) -> np.ndarray:
    """Coerce one vector or a (rows, n) batch of them to canonical residues.

    A 1-D or 2-D int64 ndarray is not copied: it is returned as it is when
    every entry is already a residue, else reduced into a new array. The
    caller must not write to the result.
    """
    if type(v) is np.ndarray and v.dtype == np.int64 and v.ndim in (1, 2):
        # one unsigned maximum: negative entries wrap above 2**63
        return v % field.p if v.size and v.view(np.uint64).max() >= field.p else v
    return _residues(field, v, (1, 2), "expected a vector or a 2-D batch of them")


# -- elimination-based algorithms ------------------------------------------


def _clear_column(a: np.ndarray, r: int, c: int, hit: np.ndarray, p: int) -> None:
    """Zero column c in rows `hit` by subtracting multiples of pivot row r.

    The one elimination update: the pivot is 1, so each multiplier a[i, c] is
    a residue and every product is below p**2, and only the pivot row's
    nonzero columns (all >= c) are touched, so sparse rows stay cheap.
    """
    if hit.size == 0:
        return
    cs = np.flatnonzero(a[r, c:]) + c
    block = np.ix_(hit, cs)
    a[block] = (a[block] - a[hit, c][:, None] * a[r, cs]) % p


def _gauss_jordan(a: np.ndarray, p: int) -> tuple[int, tuple[int, ...], int]:
    """Reduce `a` in place to its RREF by Gauss-Jordan with modular pivoting.

    Returns (rank, pivot column indices, det). With at least as many columns
    as rows, det is the determinant of the leading square block: 0 once a
    column of that block has no pivot; else the block reduces to I by row
    swaps, each negating the determinant, and pivot-row scalings, each
    dividing it by the pivot, so det is the product of the pivots as found,
    negated once per swap.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[:, c])
        k = nz.searchsorted(r)
        if k == nz.size:
            det = 0
            continue
        # a swap moves row r, zero in column c, so nz stays valid
        pivot_row = int(nz[k])
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
            det = -det
        pivot = int(a[r, c])
        det = det * pivot % p
        a[r, c:] = a[r, c:] * pow(pivot, -1, p) % p
        _clear_column(a, r, c, nz[nz != pivot_row], p)
        pivots.append(c)
        r += 1
    return r, tuple(pivots), det


def rref(m: FieldMatrix) -> tuple[FieldMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form via Gauss-Jordan with modular pivoting.

    Returns (reduced matrix, rank, pivot column indices). Pivots are
    scaled to 1 and cleared above and below, so the output is the unique
    canonical representative of the row space.
    """
    a = m.data.copy()
    rk, pivots, _ = _gauss_jordan(a, m.field.p)
    return FieldMatrix(m.field, a), rk, pivots


def kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Canonical basis of the right null space {v : m v = 0}: its RREF.

    Two matrices have the same null space exactly when this function
    returns identical matrices. The result has (cols - rank) rows; a
    trivial kernel gives a 0 x cols matrix.

    One elimination, of m with its columns reversed. In the free-column
    basis of that RREF, the vector of free column f has a 1 at f, zeros at
    the other free columns, and its other nonzeros in pivot columns left of
    f. Reversing the columns makes that 1 the leading entry, and reversing
    the rows puts the leading entries in increasing order: the result is in
    RREF, which a subspace has only one of.
    """
    reduced, rk, pivots = rref(FieldMatrix._wrap(m.field, m.data[:, ::-1]))
    free = np.delete(np.arange(m.cols), list(pivots))
    basis = np.zeros((free.size, m.cols), dtype=np.int64)
    # filled through its reversed view, so the result takes no reversing copy
    reversed_view = basis[::-1, ::-1]
    reversed_view[np.arange(free.size), free] = 1
    reversed_view[:, list(pivots)] = -reduced.data[:rk, free].T % m.field.p
    return FieldMatrix._wrap(m.field, basis)


def determinant(m: FieldMatrix) -> int:
    """Determinant, read off the Gauss-Jordan elimination of a copy of m."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    return _gauss_jordan(m.data.copy(), m.field.p)[2]


def inverse(m: FieldMatrix) -> FieldMatrix:
    """Inverse via Gauss-Jordan on [m | I]; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise ValueError(f"inverse needs a square matrix, got {m.shape}")
    n = m.rows
    aug = np.hstack([m.data, np.eye(n, dtype=np.int64)])
    if _gauss_jordan(aug, m.field.p)[2] == 0:
        raise SingularMatrixError(f"matrix is singular over {m.field!r} (determinant = 0)", det=0)
    return FieldMatrix(m.field, aug[:, n:])


def char_poly(m: FieldMatrix) -> FieldPoly:
    """Characteristic polynomial det(xI - m) by the Berkowitz method.

    Division-free: exact over any prime field. The result is monic of
    degree n, returned with ascending coefficients.

    The recurrence processes leading principal submatrices. For each
    size k it forms the Toeplitz factor t from the new row/column border
    (R, C, corner a) via t_j = -R M^{j-2} C, then convolves it with the
    previous coefficient vector.
    """
    if m.rows != m.cols:
        raise ValueError(f"characteristic polynomial needs a square matrix, got {m.shape}")
    n = m.rows
    field = m.field
    p = field.p
    if n == 0:
        return FieldPoly.one(field)
    a = m.data
    # pv holds descending coefficients of the charpoly of the leading
    # (k-1) x (k-1) principal submatrix
    pv = [1, (-int(a[0, 0])) % p]
    for k in range(2, n + 1):
        # one product gives both: the first k-1 entries are M w, the last R w
        border = a[:k, : k - 1]
        t = [1, (-int(a[k - 1, k - 1])) % p]
        w = a[: k - 1, k - 1]
        for _ in range(k - 1):
            mw_rw = mulmod(border, w, p)
            t.append(-int(mw_rw[-1]) % p)
            w = mw_rw[:-1]
        t = t[: k + 1]
        new = [0] * (k + 1)
        for i in range(k + 1):
            s = 0
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                s += t[i - j] * pv[j]
            new[i] = s % p
        pv = new
    pv.reverse()
    return FieldPoly(tuple(pv), field)


def multiplicative_order(m: FieldMatrix, cap: int = 10**6) -> int | None:
    """Smallest e >= 1 with m^e = I, or None if the search passes cap.

    Requires an invertible square matrix (the powers of a singular
    matrix never reach the identity).
    """
    if m.rows != m.cols:
        raise ValueError(f"multiplicative order needs a square matrix, got {m.shape}")
    if determinant(m) == 0:
        raise SingularMatrixError(
            "singular matrix has no multiplicative order (determinant = 0)", det=0
        )
    p = m.field.p
    ident = np.eye(m.rows, dtype=np.int64)
    power = m.data.copy()
    for e in range(1, cap + 1):
        if np.array_equal(power, ident):
            return e
        power = mulmod(power, m, p)
    return None


def circulant_from_first_row(field: PrimeField, first_row, rows: int | None = None) -> FieldMatrix:
    """n x n circulant: row i is the first row cyclically shifted right by i.

    Equivalently entry (i, j) = first_row[(j - i) mod n]. With `rows`, only
    its first `rows` rows, in O(rows * n).
    """
    r = as_vector(field, first_row)
    n = r.shape[0]
    idx = (np.arange(n)[None, :] - np.arange(n if rows is None else rows)[:, None]) % n
    return FieldMatrix._wrap(field, r[idx])


# -- serialization -----------------------------------------------------------


def format_matrix_text(m: FieldMatrix, header: str | None = None) -> str:
    """Text form: optional header line, then "p rows cols", then the rows."""
    head = [] if header is None else [header]
    rows = m.data.tolist()
    # each distinct entry is converted to text once
    values = set().union(*rows)
    text = dict(zip(values, map(str, values))).__getitem__
    lines = (" ".join(map(text, row)) for row in rows)
    return "\n".join([*head, f"{m.field.p} {m.rows} {m.cols}", *lines]) + "\n"


def format_matrix_json(m: FieldMatrix) -> str:
    return json.dumps({"p": m.field.p, "rows": m.data.tolist()})


def parse_matrix(text: str) -> FieldMatrix:
    """Parse either serialized matrix form.

    Accepts the text format (dimension line "p rows cols" followed by
    rows of space-separated residues, optionally preceded by one header
    line) or the JSON object {"p": ..., "rows": [[...], ...]}.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty matrix input")
    if s[0] == "{":
        obj = json.loads(s)
        if "p" not in obj or "rows" not in obj:
            raise ValueError('JSON matrix must have "p" and "rows" keys')
        p, rows = obj["p"], obj["rows"]
        rows_ok = isinstance(rows, list) and all(
            isinstance(row, list) and all(_is_int_type(type(x)) for x in row) for row in rows
        )
        if not rows_ok:
            raise ValueError('JSON matrix needs "rows" of integer lists')
        return FieldMatrix(PrimeField(p), rows)
    lines = [ln.strip() for ln in s.splitlines() if ln.strip()]
    try:  # the dimension line's own rule: every token is one int() accepts
        [int(tok) for tok in lines[0].split()]
    except ValueError:
        lines = lines[1:]  # skip a header line such as "transform form=... lambda=..."
        if not lines:
            raise ValueError("matrix input has a header but no dimension line")
    dims = lines[0].split()
    if len(dims) != 3:
        raise ValueError(f"expected dimension line 'p rows cols', got {lines[0]!r}")
    p, nrows, ncols = (int(t) for t in dims)
    body = lines[1:]
    if len(body) != nrows:
        raise ValueError(f"expected {nrows} rows, got {len(body)}")
    rows = [ln.split() for ln in body]
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"expected {ncols} entries per row, got {len(row)}")
    field = PrimeField(p)
    # int() yields only ints, never a bool or a float, so the tokens go to
    # int64 directly, without the type scan of an object array
    try:
        data = np.array([list(map(int, row)) for row in rows], dtype=np.int64)
    except OverflowError:
        raise ValueError(_INT64_RANGE) from None
    return FieldMatrix(field, data.reshape(nrows, ncols))
