"""Dense linear algebra over GF(p), backed by small integer numpy arrays.

Entries are canonical residues held in read-only int64 arrays. Every
product-then-reduce in the package goes through one kernel, :func:`mulmod`,
which reduces once after the whole product. A dot product of length N of
residues is at most N*(p-1)**2, and the kernel picks its path from that
bound:

- below 2**53, float64 holds every partial sum exactly, in any summation
  order, so a product of at least :data:`FLOAT_MIN_MACS` multiply-adds runs
  in float64 BLAS (the delayed reduction of FFLAS-FFPACK, Dumas, Giorgi and
  Pernet, ACM TOMS 2008);
- below 2**63, it is an int64 product; :class:`PrimeField` refuses
  p >= 2**21 (:data:`perfectnt.gf.MAX_MODULUS`), so this holds for every
  inner dimension below 2**21;
- otherwise the product is refused with ValueError.

The elimination update (:func:`_clear_column`) is elementwise and keeps
its products below p**2.

Algorithms that need to be division-aware (RREF, determinant, inverse)
pivot with modular inverses. The characteristic polynomial uses the
Berkowitz method, which is division-free, so it is exact over any prime
field without special-casing small p.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .gf import ModulusMismatchError, PrimeField
from .poly import FieldPoly

# Below this many multiply-adds the float64 conversions cost more than BLAS
# saves (a 23x22 Berkowitz step, a 4x400 block times one vector): use int64.
FLOAT_MIN_MACS = 4096

class SingularMatrixError(ValueError):
    """Raised when a singular matrix is inverted; carries the determinant."""

    def __init__(self, message: str, det: int = 0):
        super().__init__(message)
        self.det = det


class FieldMatrix:
    """Immutable dense matrix over GF(p)."""

    __slots__ = ("field", "data", "_floats")

    def __init__(self, field: PrimeField, data):
        self._set(field, _residues(field, data, 2, "matrix data must be 2-dimensional"))

    @classmethod
    def _wrap(cls, field: PrimeField, data: np.ndarray, floats=None) -> "FieldMatrix":
        """A matrix over `data`, which already holds canonical int64 residues."""
        m = object.__new__(cls)
        m._set(field, data, floats)
        return m

    def _set(self, field: PrimeField, data: np.ndarray, floats=None) -> None:
        data.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_floats", floats)

    def _float_data(self) -> np.ndarray:
        """Read-only float64 copy of `data`, built on first use and kept."""
        if self._floats is None:
            floats = self.data.astype(np.float64)
            floats.setflags(write=False)
            object.__setattr__(self, "_floats", floats)
        return self._floats

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

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

    def row(self, i: int) -> np.ndarray:
        return self.data[i]

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j]

    def transpose(self) -> "FieldMatrix":
        """The transpose, as views of this matrix's int64 data and float64 copy."""
        return FieldMatrix._wrap(self.field, self.data.T, self._float_data().T)

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

    def __str__(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.data.tolist())


def _residues(field: PrimeField, data, ndim: int, shape_error: str) -> np.ndarray:
    """`data` as an int64 array of canonical residues with `ndim` dimensions."""
    try:
        arr = np.asarray(data, dtype=np.int64)
    except OverflowError:
        raise ValueError("entries must lie in the int64 range [-2**63, 2**63)") from None
    if arr.ndim != ndim:
        raise ValueError(f"{shape_error}, got shape {arr.shape}")
    return arr % field.p


def mulmod(a, b, p: int) -> np.ndarray:
    """(a @ b) % p as canonical int64 residues: the package's one product kernel.

    Each operand is an int64 array of residues, or a FieldMatrix, whose cached
    float64 copy is then used as it is. The path follows from the proven bound
    on every partial sum, inner * (p-1)**2 (see the module docstring), and from
    the shape: float64 BLAS below 2**53 for products of at least FLOAT_MIN_MACS
    multiply-adds, the int64 product below 2**63, a ValueError above.
    """
    inner = a.shape[-1]
    bound = inner * (p - 1) ** 2
    macs = math.prod(a.shape) * math.prod(b.shape) // max(inner, 1)
    if bound < 2**53 and macs >= FLOAT_MIN_MACS:
        product = _as_floats(a) @ _as_floats(b)
        return product.astype(np.int64) % p
    if bound >= 2**63:
        raise ValueError(f"a product of inner dimension {inner} over GF({p}) would overflow int64")
    return _as_ints(a) @ _as_ints(b) % p


def _as_floats(x) -> np.ndarray:
    return x._float_data() if isinstance(x, FieldMatrix) else x.astype(np.float64)


def _as_ints(x) -> np.ndarray:
    return x.data if isinstance(x, FieldMatrix) else x


def as_vector(field: PrimeField, v) -> np.ndarray:
    """Coerce a sequence to a 1-D canonical-residue array over the field."""
    return _residues(field, v, 1, "expected a 1-D vector")


def vstack(top: FieldMatrix, bottom: FieldMatrix) -> FieldMatrix:
    top._check(bottom)
    if top.cols != bottom.cols:
        raise ValueError("column counts differ")
    return FieldMatrix(top.field, np.vstack([top.data, bottom.data]))


def hstack(left: FieldMatrix, right: FieldMatrix) -> FieldMatrix:
    left._check(right)
    if left.rows != right.rows:
        raise ValueError("row counts differ")
    return FieldMatrix(left.field, np.hstack([left.data, right.data]))


# -- elimination-based algorithms ------------------------------------------


def _clear_column(a: np.ndarray, r: int, c: int, hit: np.ndarray, p: int, inv: int) -> None:
    """Zero column c in rows `hit` by subtracting multiples of pivot row r.

    The one elimination update: the multiplier a[i, c] * inv is reduced first,
    so every product is below p**2, and only the pivot row's nonzero columns
    (all >= c) are touched, so sparse rows stay cheap.
    """
    if hit.size == 0:
        return
    cs = np.flatnonzero(a[r, c:]) + c
    mult = a[hit, c] if inv == 1 else a[hit, c] * inv % p
    block = np.ix_(hit, cs)
    a[block] = (a[block] - mult[:, None] * a[r, cs]) % p


def rref(m: FieldMatrix) -> tuple[FieldMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form via Gauss-Jordan with modular pivoting.

    Returns (reduced matrix, rank, pivot column indices). Pivots are
    scaled to 1 and cleared above and below, so the output is the unique
    canonical representative of the row space.
    """
    p = m.field.p
    a = m.data.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[:, c])
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        # a swap moves row r, zero in column c, so nz stays valid
        pivot_row = int(nz[k])
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        _clear_column(a, r, c, nz[nz != pivot_row], p, 1)
        pivots.append(c)
        r += 1
    return FieldMatrix(m.field, a), r, tuple(pivots)


def rank(m: FieldMatrix) -> int:
    return rref(m)[1]


def kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Canonical basis of the right null space {v : m v = 0}.

    The usual free-column basis is extracted from the RREF and then the
    basis itself is put in RREF, so two matrices have the same null
    space exactly when this function returns identical matrices. The
    result has (cols - rank) rows; a trivial kernel gives a 0 x cols
    matrix.
    """
    reduced, rk, pivots = rref(m)
    free = np.delete(np.arange(m.cols), list(pivots))
    if not free.size:
        return FieldMatrix.zeros(m.field, 0, m.cols)
    basis = np.zeros((free.size, m.cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, list(pivots)] = -reduced.data[:rk, free].T % m.field.p
    canonical, brank, _ = rref(FieldMatrix(m.field, basis))
    # the free-column basis is always independent
    assert brank == free.size
    return canonical


def determinant(m: FieldMatrix) -> int:
    """Determinant by Gaussian elimination, tracking row-swap signs."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    p = m.field.p
    a = m.data.copy()
    det = 1
    for c in range(m.rows):
        nz = np.flatnonzero(a[c:, c]) + c
        if nz.size == 0:
            return 0
        pivot_row = int(nz[0])
        if pivot_row != c:
            a[[c, pivot_row]] = a[[pivot_row, c]]
            det = (-det) % p
        det = (det * int(a[c, c])) % p
        _clear_column(a, c, c, nz[1:], p, pow(int(a[c, c]), -1, p))
    return det


def inverse(m: FieldMatrix) -> FieldMatrix:
    """Inverse via Gauss-Jordan on [m | I]; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise ValueError(f"inverse needs a square matrix, got {m.shape}")
    n = m.rows
    aug = FieldMatrix(m.field, np.hstack([m.data, np.eye(n, dtype=np.int64)]))
    reduced, rk, _ = rref(aug)
    if rk < n or not np.array_equal(reduced.data[:, :n], np.eye(n, dtype=np.int64)):
        raise SingularMatrixError(f"matrix is singular over {m.field!r} (determinant = 0)", det=0)
    return FieldMatrix(m.field, reduced.data[:, n:])


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


def circulant_from_first_row(field: PrimeField, first_row) -> FieldMatrix:
    """n x n circulant: row i is the first row cyclically shifted right by i.

    Equivalently entry (i, j) = first_row[(j - i) mod n].
    """
    r = as_vector(field, first_row)
    n = r.shape[0]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return FieldMatrix(field, r[idx])


# -- serialization -----------------------------------------------------------


def format_matrix_text(m: FieldMatrix, header: str | None = None) -> str:
    """Text form: optional header line, then "p rows cols", then the rows."""
    head = [] if header is None else [header]
    rows = (" ".join(map(str, row)) for row in m.data.tolist())
    return "\n".join([*head, f"{m.field.p} {m.rows} {m.cols}", *rows]) + "\n"


def format_matrix_json(m: FieldMatrix) -> str:
    return json.dumps({"p": m.field.p, "rows": m.data.tolist()})


def _is_json_int(x) -> bool:
    """A JSON integer; int() would also truncate 7.9 and accept "7" or true."""
    return isinstance(x, int) and not isinstance(x, bool)


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
            isinstance(row, list) and all(map(_is_json_int, row)) for row in rows
        )
        if not (_is_json_int(p) and rows_ok):
            raise ValueError('JSON matrix needs an integer "p" and "rows" of integer lists')
        return FieldMatrix(PrimeField(p), rows)
    lines = [ln.strip() for ln in s.splitlines() if ln.strip()]
    first = lines[0].split()
    if not all(tok.lstrip("-").isdigit() for tok in first):
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
    if nrows == 0:
        return FieldMatrix.zeros(PrimeField(p), 0, ncols)
    # numpy parses each token with int(); FieldMatrix refuses what int64 cannot hold
    return FieldMatrix(PrimeField(p), rows)
