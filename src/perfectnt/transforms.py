"""Transform construction: inflate a parity check to N x N and add lambda*I.

A code's parity-check matrix H has shape (N-k) x N. Inflation extends it
to a square matrix H_e whose extra k rows are either zeros (build_standard,
which build_appendix_systematic calls on a systematic [-P^T | I]), sums of
pairs of parity rows (build_extended_golay), or — when the code is cyclic —
the remaining cyclic shifts that complete the circulant (build_cyclic). Each
builder is the one place that knows its inflation. Every inflation adds only
rows in H's row space, so ker H_e = ker H. The transform is then

    T = H_e + lambda * I

and lambda is admissible exactly when det(T) != 0. Every vector fixed by
T is a codeword and vice versa: the lambda-eigenspace of T is the code
itself, which is what makes these matrices transforms with a meaningful
inverse on the one side and a parity check on the other.

So H_e = A*K with K r x N spanning H's row space (r = N-k), and TransformSpec
keeps T = lambda*I + A*K with only A's first m rows, the rest being zero (m = r
for null rows, else N). One tail certifies every build by r x r
algebra: det T = lambda^(N-r) det(lambda*I_r + K*A) (Sylvester), and T^-1 =
lambda^-1 I + A'*K with A' = -lambda^-1 A (lambda*I_r + K*A)^-1 (Woodbury), the
same form. Each side is one matrix.Factored operand, which resolves its float
tier and float copies of A and K once, at build. apply computes lambda*v +
A*(K*v), O(rN) per vector with r close to log_p N for Hamming codes: a fast
Hamming NTT for every inflation. An int64 array given to apply is not copied.

The eigenspace comes from the same factors. T - lambda*I = A*K, with A's rows
past m zero, maps v to zero exactly when K*v lies in ker A, and ker A = ker R
for R the nonzero rows of rref(A), row operations keeping the kernel. So
ker(T - lambda*I) = ker(R*K), for any A and any rank: eigenspace_rows reduces
R*K to at most r rows, and only eigenspace expands those into a dim x N basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .codes import CodeSpec, parity_rows_from_check_poly, perfect_code_witness
from .gf import PrimeField
from .matrix import (
    Factored,
    FieldMatrix,
    _remainder,
    as_vectors,
    circulant_from_first_row,
    determinant,
    format_matrix_text,
    inverse,
    kernel_basis,
    mulmod,
    rref,
)

FORM_STANDARD_NULLROW = "standard_nullrow"
FORM_STANDARD_COMBO = "standard_combo"
FORM_CYCLIC = "cyclic"

# Row pairs whose sums complete the 6 x 12 extended ternary parity check
# to a square matrix (indices into the parity rows, applied in order).
EXTENDED_GOLAY_COMBINATION_PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2))

# The most residues one property check draws, trials x N: a (trials, N) int64
# batch of 2**24 takes 128 MiB, and 1000 trials at N = 16383 stay below it.
MAX_TRIAL_ENTRIES = 2**24


class EigenvalueUnsuitableError(ValueError):
    """The chosen lambda makes H_e + lambda*I singular."""

    def __init__(self, lam: int, label: str):
        self.lam = lam
        super().__init__(
            f"eigenvalue lambda={lam} is unsuitable for {label}: "
            f"H_e + {lam}*I is singular"
        )


@dataclass(frozen=True)
class TransformSpec:
    """A built transform: T and T^-1 in structured form, and det T.

    Construction fails fast on a singular choice of lambda, so every
    TransformSpec in existence is invertible and carries a nonzero det.
    `matrix` and `inverse_matrix` are the dense views, built on first use
    and kept. They multiply as plain int64 matrices, except a @ T.T with a
    view's transpose on the right, which runs in O(rN) per vector through
    the structured form.
    """

    code: CodeSpec
    lam: int
    form: str
    det: int
    _forward: Factored = dataclass_field(compare=False)  # code, lam and form fix T
    _inverse: Factored = dataclass_field(compare=False)

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

    def _vectors(self, v) -> np.ndarray:
        """v as residues: one length-N vector or a (rows, N) batch."""
        vs = as_vectors(self.field, v)
        if vs.shape[-1] != self.n:
            raise ValueError(f"expected a length-{self.n} vector, got {vs.shape[-1]}")
        return vs

    def apply(self, v) -> np.ndarray:
        """T v for one vector; for a (rows, N) batch, T applied to each row."""
        return mulmod(self._forward, self._vectors(v).T, self.field.p).T

    def apply_inverse(self, v) -> np.ndarray:
        """T^-1 v for one vector; for a (rows, N) batch, T^-1 applied to each row."""
        return mulmod(self._inverse, self._vectors(v).T, self.field.p).T

    def first_column(self) -> np.ndarray:
        """T e_0 = lambda*e_0 + A*K[:, 0], the int64 image Factored.exact_image."""
        delta = np.zeros(self.n, dtype=np.int64)
        delta[0] = 1
        return self._forward.exact_image(delta)

    def __repr__(self) -> str:
        return f"TransformSpec({self.code.label}, lambda={self.lam}, form={self.form})"


def _finish(code: CodeSpec, lam: int, a: FieldMatrix, k: FieldMatrix, form: str) -> TransformSpec:
    """Certify T = lambda*I + A*K, refusing a zero determinant, and invert it.

    A holds the first m rows of an N x r factor, K is r x N. Only the r x r
    matrix lambda*I_r + K*A is ever factored (see the module docstring). At
    lambda = 0, T = A*K is invertible only when r = N, where A and K are
    invertible and T^-1 = K^-1*A^-1 = A*(K*A)^-2*K, in the same form.
    """
    field, p, lam = code.field, code.field.p, lam % code.field.p
    r, n = k.shape
    core = FieldMatrix(field, mulmod(k[:, : a.rows], a, p) + lam * np.eye(r, dtype=np.int64))
    det = pow(lam, n - r, p) * determinant(core) % p
    if det == 0:
        raise EigenvalueUnsuitableError(lam, code.label)
    core_inv = inverse(core)
    if lam == 0:
        lam_inv, a_inv = 0, mulmod(a, mulmod(core_inv, core_inv, p), p)
    else:
        lam_inv = pow(lam, -1, p)
        a_inv = mulmod(a, core_inv, p) * (p - lam_inv) % p
    backward = Factored(lam_inv, FieldMatrix(field, a_inv), k)
    return TransformSpec(code, lam, form, det, Factored(lam, a, k), backward)


def build_standard(code: CodeSpec, lam: int) -> TransformSpec:
    """Transform from a parity check inflated with null rows: A = I_r, K = H."""
    identity = FieldMatrix.identity(code.field, code.redundancy)
    return _finish(code, lam, identity, code.H, FORM_STANDARD_NULLROW)


def build_cyclic(code: CodeSpec, lam: int) -> TransformSpec:
    """Transform whose H_e is the full circulant of the check polynomial.

    T is multiplication by lambda + x^(N-k) h(x) mod x^N - 1. H_e is laid out
    from the code's parity rows, parity_rows_from_check_poly(h, N): row i is
    their row 0 shifted right by i, so H_e[i, j] = row0[(j - i) % N] and its
    first N-k rows are the parity rows. H_e has rank N-k, and those rows are
    independent (triangular, h's leading coefficient on the diagonal), so they
    span its rows. K is their reduced row echelon form R; with S its pivot
    columns R[:, S] = I, so H_e = H_e[:, S] R and A = H_e[:, S], whose entry
    (i, s) is row0[(s - i) % N].
    """
    if code.h is None:
        raise ValueError(
            f"{code.label} has no check polynomial; cyclic inflation undefined"
        )
    n = code.N
    first_rows = parity_rows_from_check_poly(code.h, n)
    reduced, _, pivots = rref(first_rows)
    a = first_rows.data[0][(np.array(pivots) - np.arange(n)[:, None]) % n]
    return _finish(code, lam, FieldMatrix(code.field, a), reduced, FORM_CYCLIC)


def build_extended_golay(code: CodeSpec, lam: int) -> TransformSpec:
    """Transform whose H_e appends six sums of pairs of the six parity rows.

    Defined for the extended ternary Golay code, whose parity check is 6 x 12:
    A = [I_6; C], where row i of C selects the i-th pair, and K = H.
    """
    if code.H.shape != (6, 12):
        raise ValueError(
            f"{code.label} has a {code.H.rows} x {code.H.cols} parity check; "
            "row-combination inflation needs 6 x 12 (the extended ternary Golay code)"
        )
    rows = np.eye(6, dtype=np.int64)
    a = np.vstack([rows, rows[np.array(EXTENDED_GOLAY_COMBINATION_PAIRS)].sum(axis=1)])
    return _finish(code, lam, FieldMatrix(code.field, a), code.H, FORM_STANDARD_COMBO)


def build_appendix_systematic(p_block: FieldMatrix, lam: int) -> TransformSpec:
    """The null-row build of the systematic code H = [-P^T | I_r].

    P is the k x r block of a systematic generator [I | P], r = N - k. For
    r <= k, T is the appendix block matrix

        [ lambda*I - P^T | I        ]
        [ 0              | lambda*I ]

    with rectangular identities where the blocks are not square. For r > k
    its lambda*I and I blocks overlap, the rows where they do leave H's row
    space, and that matrix's eigenspace is not the code; the null-row build
    is used for every shape. lambda = 0 always gives a singular matrix, and
    unusual P blocks can be singular at nonzero lambda too; the determinant
    check rejects both.
    """
    field = p_block.field
    k, r = p_block.shape
    n = k + r
    minus_p_t = p_block.transpose().scaled(-1)
    h_matrix = FieldMatrix(field, np.hstack([minus_p_t.data, np.eye(r, dtype=np.int64)]))
    return build_standard(CodeSpec(field, n, k, None, h_matrix, None, f"systematic({n},{k})"), lam)


# -- eigenstructure ------------------------------------------------------------


def eigen_candidates(
    code: CodeSpec, build: Callable[[CodeSpec, int], TransformSpec]
) -> list[tuple[int, int]]:
    """(lambda, det(H_e + lambda*I)) for every residue lambda.

    `build(code, lambda)` is the builder of the inflation; a lambda it
    refuses as singular reads det 0. Admissible eigenvalues are exactly
    those with nonzero determinant.
    """
    table = []
    for lam in range(code.field.p):
        try:
            table.append((lam, build(code, lam).det))
        except EigenvalueUnsuitableError:
            table.append((lam, 0))
    return table


def eigenspace_rows(t: TransformSpec) -> FieldMatrix:
    """Nonzero rows of rref(R*K), whose kernel is ker(T - lambda*I), from A and K.

    T - lambda*I = A*K with A's rows past m zero, so v is in the kernel
    exactly when K*v is in ker A. ker A = ker R, R the nonzero rows of
    rref(A), since row operations keep the kernel. Hence ker(T - lambda*I) =
    ker(R*K), for every A, whatever its rank. Two matrices have one kernel
    exactly when their reduced rows agree; these are N - dim <= r of them.
    """
    f = t._forward
    reduced, rank, _ = rref(f.a)
    reduced, rank, _ = rref(FieldMatrix(t.field, mulmod(reduced[:rank], f.k, f.p)))
    return FieldMatrix._wrap(t.field, reduced.data[:rank])


def eigenspace(t: TransformSpec) -> FieldMatrix:
    """Canonical basis of ker(T - lambda*I) at the built lambda, a dim x N matrix."""
    return kernel_basis(eigenspace_rows(t))


def is_perfect_transform(t: TransformSpec) -> tuple[bool, int | None, int]:
    """Sphere-packing certificate for the transform's eigenspace.

    Returns (perfect, witness radius or None, eigenspace dimension). The
    dimension is computed from the transform, not read off the code, so
    a wrong fixture cannot vacuously pass, and a radius 1 also needs the
    eigenspace rows' columns nonzero and pairwise independent
    (codes.perfect_code_witness). No eigenspace basis is formed.
    """
    rows = eigenspace_rows(t)
    witness = perfect_code_witness(rows)
    return witness is not None, witness, t.n - rows.rows


# -- application routes -----------------------------------------------------------


def apply_via_polynomial(t: TransformSpec, v) -> np.ndarray:
    """Apply a cyclic transform as multiplication in GF(p)[x]/(x^n - 1).

    Independent of the matrix product route: it reads lambda, the code's
    check polynomial h and its generator polynomial g = (x^n - 1)/h, never
    A, K or T. g is the code's own (CodeSpec.g, kept from the division that
    checked h), so no FieldPoly is divided here. T multiplies by
    lambda + x^r h(x) mod x^n - 1, r = n - deg h (see build_cyclic). With
    s = v mod g, h*v = h*s mod x^n - 1, and deg(h*s) < n, so that product
    does not wrap: v is divided by g (n - r steps), s multiplied by h (one
    step per nonzero coefficient of h), the product rotated by r and lambda*v
    added. v is one length-n vector or a (rows, n) batch; the result has v's
    shape and must agree with apply() entry for entry.
    """
    if t.form != FORM_CYCLIC:
        raise ValueError(f"polynomial application needs a cyclic transform, got {t.form}")
    vs = t._vectors(v)
    field, h, g, n = t.field, t.code.h, t.code.g, t.n
    p, k = field.p, h.degree
    r = n - k
    # x^r = tail(x) mod g: the lower terms of g over its leading coefficient, negated
    lead_inv = field.inv(g.coeffs[-1])
    tail = np.array([-c * lead_inv % p for c in g.coeffs[:-1]], dtype=np.int64)[:, None]
    # one row per power of x, one column per vector; the top coefficient is
    # folded down unreduced, so an entry stays below p + r*(p-1)**2
    rem = vs.reshape(-1, n).T.copy()
    for i in range(n - 1, r - 1, -1):
        rem[i - r : i] += tail * (rem[i] % p)
    s = rem[:r] % p
    del rem
    hs = np.zeros((n, s.shape[1]), dtype=np.int64)
    for j, c in enumerate(h.coeffs):
        if c:
            hs[j : j + r] += c * s
    # times x^r: the power i of h*s moves to (i + r) mod n
    out = t.lam * vs.reshape(-1, n).T
    out[r:] += hs[:k]
    out[:r] += hs[k:]
    return np.remainder(out, p, out=out).T.reshape(vs.shape)


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


def check_trials(trials: int, n: int) -> None:
    """Refuse fewer than 1 trial, or more than MAX_TRIAL_ENTRIES residues per draw."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials * n > MAX_TRIAL_ENTRIES:
        raise ValueError(
            f"trials * N = {trials} * {n} exceeds the bound 2**24 = {MAX_TRIAL_ENTRIES}"
        )


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, 2**64 over the golden ratio
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))
_WORD = 2**64 - 1
_CHUNK = 2**16  # stream outputs mixed at once, in place in the caller's batch


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's output function on uint64 counters, in place."""
    for shift, multiplier in _MIX:
        np.right_shift(z, shift, out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        if multiplier:
            np.multiply(z, np.uint64(multiplier), out=z)


class _TrialStream:
    """The trials' residues, from one SplitMix64 stream keyed by the seed.

    Output i is mix(key + (i + 1)*gamma) mod 2**64 (Steele, Lea and Flood,
    "Fast splittable pseudorandom number generators", OOPSLA 2014), so any
    stretch of the stream is drawn from its counters alone. The key is the
    seed below 2**64; a longer seed folds its low word with the mixed key of
    the rest. Each draw continues where the last stopped, and its residues
    are z mod p, biased by less than p / 2**64.
    """

    def __init__(self, seed: int):
        self.key, self.drawn = seed & _WORD, 0
        if seed >> 64:
            rest = np.array([_TrialStream(seed >> 64).key], dtype=np.uint64)
            _mix(rest, np.empty_like(rest))
            self.key ^= int(rest[0])

    def residues(self, p: int, shape: tuple[int, ...]) -> np.ndarray:
        """The stream's next residues mod p, as an int64 array of `shape`."""
        out = np.empty(shape, dtype=np.int64)
        flat = out.reshape(-1).view(np.uint64)
        steps = np.arange(1, min(flat.size, _CHUNK) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        scratch = np.empty_like(steps)
        for lo in range(0, flat.size, _CHUNK):
            z = flat[lo : lo + _CHUNK]
            start = (self.key + (self.drawn + lo) * _GAMMA) & _WORD
            np.add(steps[: len(z)], np.uint64(start), out=z)
            _mix(z, scratch[: len(z)])
            _remainder(z, p)
        self.drawn += flat.size
        return out


def certify_shift_invariance(t: TransformSpec) -> bool:
    """Whether T and T^-1 commute with the cyclic shift, by r x r algebra.

    S is the shift v -> np.roll(v, 1), T = lambda*I + A*K with K r x N and A
    N x r (its rows past m zero), and R = (K*S)[:, P], P the columns of the
    leading entries of K's rows. If

        K*S = R*K  and  S*A = A*R,

    then T*S = lambda*S + A*R*K = S*T. If T^-1 = lambda'*I + A'*K shares K and

        lambda'*lambda = 1  and  lambda'*A + A'*(lambda*I_r + K*A) = 0,

    then T^-1*T = lambda'*lambda*I + (lambda'*A + A'*(lambda*I_r + K*A))*K = I,
    and the inverse of a matrix that commutes with S commutes with S: S*A' =
    A'*R follows and is not checked. Each identity is tested exactly, so True
    is a proof, however R was chosen. Every product is r x N, N x r or r x r,
    in int64; no N x N object is formed. False when the two sides do not share
    K, which every build's do but a hand-built pair of operands may not, or
    when T is not circulant.
    """
    forward, backward = t._forward, t._inverse
    if backward.k != forward.k:
        return False
    p, n, k = t.field.p, t.n, forward.k.data
    a, a_inv = (np.zeros((n, len(k)), dtype=np.int64) for _ in range(2))
    a[: forward.a.rows] = forward.a.data
    a_inv[: backward.a.rows] = backward.a.data
    k_shifted = np.roll(k, -1, axis=1)  # K*S
    r_block = k_shifted[:, np.argmax(k != 0, axis=1)]
    if not (
        np.array_equal(k_shifted, mulmod(r_block, k, p))
        and np.array_equal(np.roll(a, 1, axis=0), mulmod(a, r_block, p))
        and forward.scalar * backward.scalar % p == 1
    ):
        return False
    core = (mulmod(k, a, p) + forward.scalar * np.eye(len(k), dtype=np.int64)) % p
    return not np.any((backward.scalar * a + mulmod(a_inv, core, p)) % p)


def sample_shift_failures(
    t: TransformSpec, vs: np.ndarray, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial failure flags of the time and frequency shift checks, by products.

    vs is a (trials, N) batch and images is T applied to it. Time shift:
    T(rot_m v) == rot_m(T v); frequency shift: the inverse turns rot_m(T v)
    back into rot_m v. A trial fails on any shift m. This makes 2N batch
    products: the route taken when certify_shift_invariance fails.
    """
    time_failed = np.zeros(len(vs), dtype=bool)
    freq_failed = np.zeros(len(vs), dtype=bool)
    for m in range(t.n):
        shifted_vs = np.roll(vs, m, axis=1)
        shifted_images = np.roll(images, m, axis=1)
        time_failed |= np.any(t.apply(shifted_vs) != shifted_images, axis=1)
        freq_failed |= np.any(t.apply_inverse(shifted_images) != shifted_vs, axis=1)
    return time_failed, freq_failed


def verify_properties(t: TransformSpec, trials: int = 1000, seed: int = 1234) -> PropertyReport:
    """Randomized and exact checks of the transform's algebraic behavior.

    Always checked: the round trip (apply_inverse undoes apply on every
    trial), linearity over random vector pairs and scalars, and the impulse
    response (the image of the unit impulse under apply is the first matrix
    column, read from the factors in int64). For cyclic transforms
    additionally: that the inverse is circulant, commutation with every
    cyclic shift (time shift), the inverse-side converse (frequency shift),
    the constant-sequence rule with the matrix row sum as the scaling
    factor, and agreement of the matrix and polynomial application routes.
    The trials are read in order from one _TrialStream keyed by the seed: the
    vectors, the second linearity batch, then the scalars.

    One certify_shift_invariance call decides the circulant inverse and the
    two shift checks. When it holds, every shifted product is exact, so the
    shift checks read 0 failures without being made. Only when it fails are
    they sampled, every shift of every trial, and the dense inverse compared
    with the circulant of its first row.
    """
    check_trials(trials, t.n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    stream = _TrialStream(seed)
    p = t.field.p
    n = t.n
    report = PropertyReport(label=t.code.label, trials=trials, seed=seed)

    def count_failures(name: str, failed: np.ndarray, note: str = "") -> None:
        """One check over all trials; `failed` holds one flag per trial."""
        fails = int(np.count_nonzero(failed))
        report.checks.append(
            CheckResult(
                name, fails == 0, "0/%d failures" % trials, f"{fails}/{trials} failures", note
            )
        )

    vs = stream.residues(p, (trials, n))
    images = t.apply(vs)
    count_failures("round_trip", np.any(t.apply_inverse(images) != vs, axis=1))

    cyclic = t.form == FORM_CYCLIC
    certified = cyclic and certify_shift_invariance(t)
    if cyclic:
        # a matrix is circulant exactly when it commutes with the cyclic shift;
        # the dense comparison is made only when the certificate fails
        ok = certified or (
            circulant_from_first_row(t.field, t.inverse_matrix.data[0]) == t.inverse_matrix
        )
        got = "match" if ok else "mismatch"
        report.checks.append(CheckResult("inverse_is_circulant", ok, "circulant closure", got))

    # linearity
    ws = stream.residues(p, (trials, n))
    ab = stream.residues(p, (trials, 2))
    lhs = t.apply((ab[:, 0:1] * vs + ab[:, 1:2] * ws) % p)
    rhs = (ab[:, 0:1] * images + ab[:, 1:2] * t.apply(ws)) % p
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

    if cyclic:
        if certified:
            time_failed = freq_failed = np.zeros(trials, dtype=bool)
        else:
            time_failed, freq_failed = sample_shift_failures(t, vs, images)
        count_failures("time_shift", time_failed, "all shifts per trial")
        count_failures("frequency_shift", freq_failed, "all shifts per trial")

        # constant sequences scale by the row sum, T*1 (exact over all residues)
        row_sums = t._forward.exact_image(np.ones(n, dtype=np.int64))
        s = int(row_sums.min())
        constants = np.repeat(np.arange(p, dtype=np.int64)[:, None], n, axis=1)
        ok = bool(np.all(row_sums == s)) and np.array_equal(
            t.apply(constants), (constants * s) % p
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
