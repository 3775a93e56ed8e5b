"""Transform construction: inflate a parity check to N x N and add lambda*I.

A code's parity-check matrix H has shape (N-k) x N. Inflation extends it
to a square matrix H_e whose extra k rows are either zeros ("null_rows"),
sums of pairs of parity rows ("row_combinations"), or — when the code is
cyclic — the remaining cyclic shifts that complete the circulant
("cyclic_shifts"). The transform is then

    T = H_e + lambda * I

and lambda is admissible exactly when det(T) != 0. Every vector fixed by
T is a codeword and vice versa: the lambda-eigenspace of T is the code
itself, which is what makes these matrices transforms with a meaningful
inverse on the one side and a parity check on the other.

TransformSpec keeps T's closed-form structure, not the dense matrix. With
r = N-k and H = [H_1 | H_2], null rows give T = [[M, H_2], [0, lambda*I_k]],
M = H_1 + lambda*I_r, so det T = lambda^k det M and T^-1 = [[M^-1,
-lambda^-1 M^-1 H_2], [0, lambda^-1 I_k]]: an r x N top block over a scalar
on the last k coordinates, applied in O(rN) (a fast Hamming NTT; the
appendix's systematic assembly has the same shape). Cyclic shifts give
multiplication by c(x) = lambda + x^r h(x) in GF(p)[x]/(x^N - 1), whose
determinant Res(x^N - 1, c) and inverse c^-1 come from one extended Euclid
(CyclicRing.inverse). Row combinations have no structure and stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .codes import CodeSpec, golay_spec, perfect_witness
from .gf import PrimeField
from .matrix import (
    FieldMatrix,
    as_vector,
    circulant_from_first_row,
    determinant,
    format_matrix_text,
    hstack,
    inverse,
    kernel_basis,
    mulmod,
    vstack,
)
from .poly import CyclicRing, FieldPoly

FORM_STANDARD_NULLROW = "standard_nullrow"
FORM_STANDARD_COMBO = "standard_combo"
FORM_CYCLIC = "cyclic"
FORM_APPENDIX = "appendix_systematic"

# Row pairs whose sums complete the 6 x 12 extended ternary parity check
# to a square matrix (indices into the parity rows, applied in order).
EXTENDED_GOLAY_COMBINATION_PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2))


class EigenvalueUnsuitableError(ValueError):
    """The chosen lambda makes H_e + lambda*I singular."""

    def __init__(self, lam: int, label: str):
        self.lam = lam
        super().__init__(
            f"eigenvalue lambda={lam} is unsuitable for {label}: "
            f"H_e + {lam}*I is singular"
        )


@dataclass(frozen=True)
class InflationStrategy:
    """How the (N-k) x N parity check is extended to N x N."""

    kind: str
    pairs: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def null_rows(cls) -> "InflationStrategy":
        return cls("null_rows")

    @classmethod
    def row_combinations(cls, pairs) -> "InflationStrategy":
        return cls("row_combinations", tuple((int(a), int(b)) for a, b in pairs))

    @classmethod
    def cyclic_shifts(cls) -> "InflationStrategy":
        return cls("cyclic_shifts")


def inflate(code: CodeSpec, strategy: InflationStrategy) -> FieldMatrix:
    """The N x N inflated parity check H_e (no diagonal added yet)."""
    n, k, r = code.N, code.k, code.redundancy
    if strategy.kind == "null_rows":
        return vstack(code.H, FieldMatrix.zeros(code.field, k, n))
    if strategy.kind == "row_combinations":
        pairs = strategy.pairs or ()
        if len(pairs) != k:
            raise ValueError(
                f"row_combinations needs exactly k={k} pairs, got {len(pairs)}"
            )
        extra = []
        for a, b in pairs:
            if not (0 <= a < r and 0 <= b < r):
                raise ValueError(f"pair ({a},{b}) indexes outside the {r} parity rows")
            extra.append((code.H.data[a] + code.H.data[b]) % code.field.p)
        return vstack(code.H, FieldMatrix(code.field, np.array(extra, dtype=np.int64)))
    if strategy.kind == "cyclic_shifts":
        return _Circulant(code.field, _cyclic_column(code, 0), n).dense
    raise ValueError(f"unknown inflation strategy {strategy.kind!r}")


class _Dense:
    """A matrix with no structure to exploit, kept and applied as it is."""

    def __init__(self, matrix: FieldMatrix):
        self.dense = matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return mulmod(self.dense, vec, self.dense.field.p)


class _Circulant(_Dense):
    """Multiplication by c(x) in GF(p)[x]/(x^n - 1), applied through its circulant."""

    def __init__(self, field: PrimeField, c: FieldPoly, n: int):
        self.field, self.column = field, np.array(CyclicRing(n, field).to_vector(c))

    @cached_property
    def dense(self) -> FieldMatrix:
        n = self.column.shape[0]
        return circulant_from_first_row(self.field, self.column[-np.arange(n) % n])


class _Block:
    """[[top], [0 | scalar*I_k]]: an r x N top block over the scaled last k coordinates."""

    def __init__(self, top: FieldMatrix, scalar: int):
        self.top, self.scalar = top, scalar

    @cached_property
    def dense(self) -> FieldMatrix:
        r, n = self.top.shape
        bottom = np.zeros((n - r, n), dtype=np.int64)
        bottom[:, r:] = self.scalar * np.eye(n - r, dtype=np.int64)
        return FieldMatrix(self.top.field, np.vstack([self.top.data, bottom]))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        p = self.top.field.p
        head = mulmod(self.top, vec, p)
        return np.concatenate([head, self.scalar * vec[self.top.rows :] % p])


@dataclass(frozen=True)
class TransformSpec:
    """A built transform: T and T^-1 in structured form, and det T.

    Construction fails fast on a singular choice of lambda, so every
    TransformSpec in existence is invertible and carries a nonzero det.
    `matrix` and `inverse_matrix` are the dense views, built on first use
    and kept.
    """

    code: CodeSpec
    lam: int
    form: str
    det: int
    _forward: _Dense | _Block = dataclass_field(compare=False)  # code, lam and form fix T
    _inverse: _Dense | _Block = dataclass_field(compare=False)

    @property
    def field(self) -> PrimeField:
        return self.code.field

    @property
    def n(self) -> int:
        return self.code.N

    @property
    def matrix(self) -> FieldMatrix:
        return self._forward.dense

    @property
    def inverse_matrix(self) -> FieldMatrix:
        return self._inverse.dense

    def _vector(self, v) -> np.ndarray:
        vec = as_vector(self.field, v)
        if vec.shape[0] != self.n:
            raise ValueError(f"expected a length-{self.n} vector, got {vec.shape[0]}")
        return vec

    def apply(self, v) -> np.ndarray:
        return self._forward.apply(self._vector(v))

    def apply_inverse(self, v) -> np.ndarray:
        return self._inverse.apply(self._vector(v))

    def first_column(self) -> np.ndarray:
        return self.matrix.column(0)

    def __repr__(self) -> str:
        return f"TransformSpec({self.code.label}, lambda={self.lam}, form={self.form})"


def _finish(code: CodeSpec, lam: int, t_matrix: FieldMatrix, form: str) -> TransformSpec:
    """Certify a dense T: refuse a zero determinant, keep the inverse."""
    lam = lam % code.field.p
    det = determinant(t_matrix)
    if det == 0:
        raise EigenvalueUnsuitableError(lam, code.label)
    return TransformSpec(code, lam, form, det, _Dense(t_matrix), _Dense(inverse(t_matrix)))


def _block_det(top: FieldMatrix, lam: int) -> int:
    """det [[top], [0 | lambda*I_k]] = lambda^k * det of top's first r columns."""
    r, n = top.shape
    p = top.field.p
    return pow(lam, n - r, p) * determinant(FieldMatrix(top.field, top.data[:, :r])) % p


def _finish_block(code: CodeSpec, lam: int, top: FieldMatrix, form: str) -> TransformSpec:
    """Certify T = [[M, H_2], [0, lambda*I_k]], given its top rows, and invert it by blocks."""
    p = code.field.p
    lam = lam % p
    det = _block_det(top, lam)
    if det == 0:
        raise EigenvalueUnsuitableError(lam, code.label)
    r = top.rows
    m_inv = inverse(FieldMatrix(code.field, top.data[:, :r]))
    lam_inv = pow(lam, -1, p) if lam else 0  # lambda = 0 leaves no tail (k = 0)
    tail = mulmod(m_inv, top.data[:, r:], p) * (p - lam_inv) % p
    top_inv = FieldMatrix(code.field, np.hstack([m_inv.data, tail]))
    return TransformSpec(code, lam, form, det, _Block(top, lam), _Block(top_inv, lam_inv))


def _null_row_top(code: CodeSpec, lam: int) -> FieldMatrix:
    """The parity rows of T = H_e + lambda*I for the null-row inflation: H + lambda*[I_r | 0]."""
    r, n = code.H.shape
    return FieldMatrix(code.field, code.H.data + lam * np.eye(r, n, dtype=np.int64))


def _cyclic_column(code: CodeSpec, lam: int) -> FieldPoly:
    """T's first column as a ring element: c(x) = lambda + x^(N-k) h(x) mod x^N - 1."""
    if code.h is None:
        raise ValueError(
            f"{code.label} has no check polynomial; cyclic inflation undefined"
        )
    shifted = FieldPoly.monomial(code.field, code.redundancy) * code.h
    return CyclicRing(code.N, code.field).reduce(shifted + FieldPoly((lam,), code.field))


def build_standard(
    code: CodeSpec, lam: int, strategy: InflationStrategy | None = None
) -> TransformSpec:
    """Transform from a parity check inflated with null rows or row sums."""
    strategy, lam = strategy or InflationStrategy.null_rows(), lam % code.field.p
    if strategy.kind == "null_rows":
        return _finish_block(code, lam, _null_row_top(code, lam), FORM_STANDARD_NULLROW)
    if strategy.kind == "row_combinations":
        ident = FieldMatrix.identity(code.field, code.N)
        return _finish(code, lam, inflate(code, strategy) + ident.scaled(lam), FORM_STANDARD_COMBO)
    raise ValueError(
        f"build_standard accepts null_rows or row_combinations, got {strategy.kind!r}"
    )


def build_cyclic(code: CodeSpec, lam: int) -> TransformSpec:
    """Transform whose H_e is the full circulant of the check polynomial."""
    field, n, lam = code.field, code.N, lam % code.field.p
    c = _cyclic_column(code, lam)
    det, c_inv = CyclicRing(n, field).inverse(c)
    if det == 0:
        raise EigenvalueUnsuitableError(lam, code.label)
    return TransformSpec(
        code, lam, FORM_CYCLIC, det, _Circulant(field, c, n), _Circulant(field, c_inv, n)
    )


def build_extended_golay(lam: int = 1) -> TransformSpec:
    """The length-12 combination-inflated transform over GF(3)."""
    strategy = InflationStrategy.row_combinations(EXTENDED_GOLAY_COMBINATION_PAIRS)
    return build_standard(golay_spec("extended_ternary"), lam, strategy)


def build_appendix_systematic(p_block: FieldMatrix, lam: int) -> TransformSpec:
    """Transform assembled blockwise from a systematic code's P block.

    Given the k x (N-k) block P of a systematic generator [I | P], the
    parity check is H = [-P^T | I] and the transform is assembled
    directly as

        [ lambda*I - P^T | I        ]
        [ 0              | lambda*I ]

    with rectangular identities where the blocks are not square. For
    N - k <= k this equals the null-row standard build on the same H.
    lambda = 0 always gives a singular matrix, and unusual P blocks can
    be singular at nonzero lambda too; the determinant check rejects both.
    """
    field, lam = p_block.field, lam % p_block.field.p
    k, r = p_block.shape
    n = k + r
    h_matrix = hstack(
        p_block.transpose().scaled(-1), FieldMatrix.identity(field, r)
    )
    code = CodeSpec(field, n, k, None, h_matrix, None, f"systematic({n},{k})")
    top = np.hstack(
        [lam * np.eye(r, k, dtype=np.int64) - p_block.data.T, np.eye(r, dtype=np.int64)]
    )
    return _finish_block(code, lam, FieldMatrix(field, top), FORM_APPENDIX)


# -- eigenstructure ------------------------------------------------------------


def eigen_candidates(
    code: CodeSpec, strategy: InflationStrategy | None = None
) -> list[tuple[int, int]]:
    """(lambda, det(H_e + lambda*I)) for every residue lambda.

    Admissible eigenvalues are exactly those with nonzero determinant. Null
    rows need one r x r determinant per lambda and cyclic shifts one
    resultant; only row combinations take N x N determinants.
    """
    strategy = strategy or InflationStrategy.null_rows()
    lams = range(code.field.p)
    if strategy.kind == "null_rows":
        return [(lam, _block_det(_null_row_top(code, lam), lam)) for lam in lams]
    if strategy.kind == "cyclic_shifts":
        ring = CyclicRing(code.N, code.field)
        return [(lam, ring.inverse(_cyclic_column(code, lam))[0]) for lam in lams]
    he = inflate(code, strategy)
    ident = FieldMatrix.identity(code.field, code.N)
    return [(lam, determinant(he + ident.scaled(lam))) for lam in lams]


def eigenspace(t: TransformSpec, lam: int | None = None) -> FieldMatrix:
    """Canonical basis of ker(T - lambda*I); defaults to the built lambda."""
    lam = t.lam if lam is None else lam % t.field.p
    shifted = t.matrix - FieldMatrix.identity(t.field, t.n).scaled(lam)
    return kernel_basis(shifted)


def is_perfect_transform(t: TransformSpec) -> tuple[bool, int | None, int]:
    """Sphere-packing certificate for the transform's eigenspace.

    Returns (perfect, witness radius or None, eigenspace dimension). The
    dimension is computed from the transform, not read off the code, so
    a wrong fixture cannot vacuously pass.
    """
    dim = eigenspace(t).rows
    witness = perfect_witness(t.field.p, t.n, dim)
    return witness is not None, witness, dim


# -- application routes -----------------------------------------------------------


def apply_via_polynomial(t: TransformSpec, v) -> np.ndarray:
    """Apply a cyclic transform as multiplication in GF(p)[x]/(x^n - 1).

    Independent of the matrix product route: only the impulse response
    c (the first column) is read, and c(x) * v(x) with exponents folded
    mod n is the sum of c_j * rot_j(v) over the nonzero c_j. v is one
    length-n vector or a (rows, n) batch; the result has v's shape and
    must agree with apply() entry for entry.
    """
    if t.form != FORM_CYCLIC:
        raise ValueError(f"polynomial application needs a cyclic transform, got {t.form}")
    vs = FieldMatrix(t.field, v).data if np.ndim(v) == 2 else as_vector(t.field, v)
    if vs.shape[-1] != t.n:
        raise ValueError(f"expected a length-{t.n} vector, got {vs.shape[-1]}")
    c = t.first_column()
    out = np.zeros_like(vs)
    for j in np.flatnonzero(c):
        out += c[j] * np.roll(vs, j, axis=-1)
    return out % t.field.p


# -- property verification ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: object
    got: object
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        s = f"CHECK {self.name} {status} expected={self.expected} got={self.got}"
        if self.note:
            s += f" note={self.note}"
        return s


@dataclass
class PropertyReport:
    label: str
    trials: int
    seed: int
    checks: list[CheckResult] = dataclass_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def verify_properties(t: TransformSpec, trials: int = 1000, seed: int = 1234) -> PropertyReport:
    """Randomized and exact checks of the transform's algebraic behavior.

    Always checked: linearity over random vector pairs and scalars, and
    the impulse response (the image of the unit impulse is the first
    matrix column). For cyclic transforms additionally: commutation with
    every cyclic shift (time shift), the inverse-side converse
    (frequency shift), the constant-sequence rule with the matrix row
    sum as the scaling factor, and agreement of the matrix and
    polynomial application routes.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    p = t.field.p
    n = t.n
    tmat_t = t.matrix.transpose()
    report = PropertyReport(label=t.code.label, trials=trials, seed=seed)

    def count_failures(name: str, failed: np.ndarray, note: str = "") -> None:
        """One check over all trials; `failed` holds one flag per trial."""
        fails = int(np.count_nonzero(failed))
        report.checks.append(
            CheckResult(
                name, fails == 0, "0/%d failures" % trials, f"{fails}/{trials} failures", note
            )
        )

    # linearity
    vs = rng.integers(0, p, size=(trials, n), dtype=np.int64)
    ws = rng.integers(0, p, size=(trials, n), dtype=np.int64)
    ab = rng.integers(0, p, size=(trials, 2), dtype=np.int64)
    images = mulmod(vs, tmat_t, p)
    lhs = mulmod((ab[:, 0:1] * vs + ab[:, 1:2] * ws) % p, tmat_t, p)
    rhs = (ab[:, 0:1] * images + ab[:, 1:2] * mulmod(ws, tmat_t, p)) % p
    count_failures("linearity", np.any(lhs != rhs, axis=1))

    # impulse response
    delta = np.zeros(n, dtype=np.int64)
    delta[0] = 1
    got = t.apply(delta)
    expected = t.first_column()
    report.checks.append(
        CheckResult(
            "impulse_response",
            bool(np.array_equal(got, expected)),
            "first matrix column",
            "match" if np.array_equal(got, expected) else f"{got.tolist()}",
        )
    )

    if t.form == FORM_CYCLIC:
        # time shift: T(rot_m v) == rot_m(T v); frequency shift: the inverse
        # turns rot_m(T v) back into rot_m v. A trial fails on any shift m.
        tinv_t = t.inverse_matrix.transpose()
        time_failed = np.zeros(trials, dtype=bool)
        freq_failed = np.zeros(trials, dtype=bool)
        for m in range(n):
            shifted_vs = np.roll(vs, m, axis=1)
            shifted_images = np.roll(images, m, axis=1)
            time_failed |= np.any(mulmod(shifted_vs, tmat_t, p) != shifted_images, axis=1)
            freq_failed |= np.any(mulmod(shifted_images, tinv_t, p) != shifted_vs, axis=1)
        count_failures("time_shift", time_failed, "all shifts per trial")
        count_failures("frequency_shift", freq_failed, "all shifts per trial")

        # constant sequences scale by the row sum (exact over all residues)
        row_sums = t.matrix.data.sum(axis=1) % p
        s = int(row_sums.min())
        constants = np.repeat(np.arange(p, dtype=np.int64)[:, None], n, axis=1)
        ok = bool(np.all(row_sums == s)) and np.array_equal(
            mulmod(constants, tmat_t, p), (constants * s) % p
        )
        note = f"row sum s={s}"
        if t.code.h is not None:
            weight = sum(1 for c in t.code.h.coeffs if c) % p
            note += f"; check-polynomial weight mod p={weight}"
        report.checks.append(
            CheckResult(
                "constant_sequence",
                ok,
                "r*s*ones for all residues r",
                "match" if ok else "mismatch",
                note=note,
            )
        )

        # matrix route vs polynomial route
        count_failures("polynomial_route", np.any(images != apply_via_polynomial(t, vs), axis=1))

    return report


# -- serialization -------------------------------------------------------------------


def format_transform(t: TransformSpec) -> str:
    """Header "transform form=<form> lambda=<l> code=<label>" + matrix text."""
    header = f"transform form={t.form} lambda={t.lam} code={t.code.label}"
    return format_matrix_text(t.matrix, header=header)
