import dataclasses
import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfectnt import matrix, reference, transforms
from perfectnt.codes import (
    CodeSpec,
    UnsupportedParametersError,
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    parity_rows_from_check_poly,
    shortened_hamming_6_3,
)
from perfectnt.gf import PrimeField, is_prime
from perfectnt.matrix import (
    Factored,
    FieldMatrix,
    circulant_from_first_row,
    determinant,
    inverse,
    kernel_basis,
    parse_matrix,
    rref,
)
from perfectnt.poly import CyclicRing, FieldPoly, reversed_coefficient_row
from perfectnt.transforms import (
    EXTENDED_GOLAY_COMBINATION_PAIRS,
    FORM_STANDARD_NULLROW,
    EigenvalueUnsuitableError,
    _finish,
    apply_via_polynomial,
    build_appendix_systematic,
    build_cyclic,
    build_extended_golay,
    build_standard,
    eigen_candidates,
    eigenspace,
    eigenspace_rows,
    format_transform,
    is_perfect_transform,
    verify_properties,
)

from helpers import (
    cyclic_factors_from_the_product,
    dense_eigenspace,
    holds_no_float_array,
    python_product,
    ring_inverse,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)

# each --form's builder, called as build(code, lambda)
BUILDERS = {
    "standard": build_standard,
    "cyclic": build_cyclic,
    "extended": build_extended_golay,
}


def _forbid_the_factored_chain(mp):
    """Through `mp`, make every product that runs a Factored chain raise, and
    every reduction of a float batch."""
    real_mulmod = matrix.mulmod

    def plain_only(a, b, p):
        assert not isinstance(a, Factored), "a product ran the factored chain"
        return real_mulmod(a, b, p)

    def no_reduce(x, p):
        raise AssertionError("a float batch was reduced")

    mp.setattr(matrix, "mulmod", plain_only)
    mp.setattr(matrix, "_reduce", no_reduce)


def _inflated(t):
    """H_e of a built transform: T - lambda*I."""
    return t.matrix - FieldMatrix.identity(t.field, t.n).scaled(t.lam)


def test_null_row_inflation():
    spec = hamming74_systematic()
    he = _inflated(build_standard(spec, 1))
    assert he.shape == (7, 7)
    assert he.data[:3].tolist() == spec.H.tolist()
    assert np.count_nonzero(he.data[3:]) == 0


def test_cyclic_inflation_matches_stored_circulant():
    spec = cyclic_hamming_spec(2, 3)
    assert _inflated(build_cyclic(spec, 1)) == FieldMatrix(GF2, reference.CYCLIC_HAMMING7_INFLATED)
    # the circulant comes from h alone, whatever parity check the code carries
    other = CodeSpec(GF2, 7, 4, None, hamming74_systematic().H, spec.h, "other")
    assert _inflated(build_cyclic(other, 1)) == FieldMatrix(GF2, reference.CYCLIC_HAMMING7_INFLATED)


def test_cyclic_inflation_requires_check_poly():
    with pytest.raises(ValueError, match="no check polynomial"):
        build_cyclic(hamming74_systematic(), 1)
    with pytest.raises(ValueError, match="no check polynomial"):
        eigen_candidates(hamming74_systematic(), build_cyclic)


def test_row_combination_rows_are_sums():
    spec = golay_spec("extended_ternary")
    he = _inflated(build_extended_golay(golay_spec("extended_ternary"), 1))
    assert he.data[:6].tolist() == spec.H.tolist()
    for i, (a, b) in enumerate(EXTENDED_GOLAY_COMBINATION_PAIRS):
        expected = (spec.H.data[a] + spec.H.data[b]) % 3
        assert he.data[6 + i].tolist() == expected.tolist()


def test_row_combination_needs_a_6_by_12_parity_check():
    with pytest.raises(ValueError, match="6 x 12"):
        build_extended_golay(hamming74_systematic(), 1)


def test_standard_build_reproduces_stored_matrix():
    t = build_standard(hamming74_systematic(), 1)
    assert t.matrix == FieldMatrix(GF2, reference.HAMMING74_TRANSFORM)
    assert t.form == "standard_nullrow"
    assert t.det == 1
    assert t.lam == 1
    # lambda is read modulo p, however large
    for build, spec in ((build_standard, hamming74_systematic()), (build_cyclic, golay_spec("ternary"))):
        big = build(spec, spec.field.p**50 + 1)
        assert big.lam == 1 and big.matrix == build(spec, 1).matrix


def test_extended_build_form_and_inverse():
    t = build_extended_golay(golay_spec("extended_ternary"), 1)
    assert t.form == "standard_combo"
    assert t.matrix == FieldMatrix(GF3, reference.EXTENDED_GOLAY12_TRANSFORM)
    assert t.inverse_matrix == FieldMatrix(GF3, reference.EXTENDED_GOLAY12_INVERSE)


def test_unsuitable_lambda_raises_with_value():
    with pytest.raises(EigenvalueUnsuitableError) as exc:
        build_standard(hamming74_systematic(), 0)
    assert exc.value.lam == 0
    assert "lambda=0" in str(exc.value)
    with pytest.raises(EigenvalueUnsuitableError):
        build_cyclic(golay_spec("ternary"), 0)


@pytest.mark.parametrize(
    "field,h", [(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (GF3, [[2, 1], [1, 0]])], ids=["gf2", "gf3"]
)
def test_zero_dimensional_code_admits_lambda_zero(field, h):
    # k = 0 leaves r = N, so T = H at lambda = 0 is invertible: the build must
    # not divide by lambda. T^-1 = A*(K*A)^-2*K keeps the forward K, and the
    # build forms no dense view
    spec = CodeSpec(field, len(h), 0, None, FieldMatrix(field, h), None, "zero")
    t = build_standard(spec, 0)
    assert t._inverse.k is t._forward.k
    assert not any("dense" in vars(side) for side in (t._forward, t._inverse))
    assert t.det == determinant(spec.H) != 0
    assert t.matrix == spec.H
    assert t.inverse_matrix == inverse(spec.H)
    v = np.arange(len(h)) % field.p
    assert np.array_equal(t.apply_inverse(t.apply(v)), v)


def test_eigen_candidates_tables():
    assert eigen_candidates(hamming74_systematic(), build_standard) == [(0, 0), (1, 1)]
    systematic = eigen_candidates(golay_spec("ternary_systematic"), build_standard)
    assert systematic == [(0, 0), (1, 2), (2, 2)]
    cyclic = eigen_candidates(golay_spec("ternary"), build_cyclic)
    assert cyclic[0] == (0, 0)
    assert all(det != 0 for _, det in cyclic[1:])


def test_eigenspace_is_code_kernel(golden):
    for t in golden.values():
        assert eigenspace(t) == kernel_basis(t.code.H), t.code.label


def test_eigenspace_of_a_rank_deficient_factor():
    # A = I_3 with column 1 zeroed and A[2, 0] = 1 has rank 2, so T - I = A*H
    # has rank 2: the 1-eigenspace is the code and one vector more, ker(R*K)
    code = hamming_parity_check(3, 3)
    a = np.eye(3, dtype=np.int64)
    a[:, 1] = 0
    a[2, 0] = 1
    t = _finish(code, 1, FieldMatrix(GF3, a), code.H, transforms.FORM_STANDARD_NULLROW)
    es = eigenspace(t)
    assert es.rows == code.k + 1
    assert es == dense_eigenspace(t)
    # K with row 2 equal to row 0: R*K reduces to two nonzero rows and a zero row,
    # which eigenspace_rows drops, so the dimension is N - 2
    k = code.H.data.copy()
    k[2] = k[0]
    t = _finish(code, 1, FieldMatrix.identity(GF3, 3), FieldMatrix(GF3, k), t.form)
    assert eigenspace_rows(t).rows == 2
    assert is_perfect_transform(t) == (False, None, code.k + 1)
    assert eigenspace(t) == dense_eigenspace(t)


def test_a_code_below_distance_3_is_not_certified_perfect():
    # H with a zero column builds at lambda = 1 and has the parameters of the
    # [7,4,3] Hamming code, but T fixes e_0, so d = 1 and no radius holds
    h = [[0, 1, 0, 1, 1, 0, 1], [0, 0, 1, 1, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1]]
    t = build_standard(CodeSpec(GF2, 7, 4, None, FieldMatrix(GF2, h), None, "zero-column"), 1)
    e0 = np.eye(1, 7, dtype=np.int64)[0]
    assert np.array_equal(t.apply(e0), e0)
    assert is_perfect_transform(t) == (False, None, 4)
    # two proportional columns over GF(3): d = 2
    h = [[1, 0, 1, 2], [0, 1, 1, 2]]
    t = build_standard(CodeSpec(GF3, 4, 2, None, FieldMatrix(GF3, h), None, "proportional"), 1)
    assert is_perfect_transform(t) == (False, None, 2)


def test_perfectness_verdicts(golden):
    expected = {
        "hamming74": (True, 1, 4),
        "hamming13": (True, 1, 10),
        "hamming7-cyclic": (True, 1, 4),
        "golay23-cyclic": (True, 3, 12),
        "golay11-cyclic": (True, 2, 6),
        "golay11-systematic": (True, 2, 6),
        "extended-golay12": (False, None, 6),
        "control63": (False, None, 3),
    }
    for name, want in expected.items():
        assert is_perfect_transform(golden[name]) == want, name


@pytest.mark.parametrize(
    "build,spec",
    [(build_cyclic, cyclic_hamming_spec(2, 10)), (build_standard, hamming_parity_check(3, 6))],
    ids=["cyclic-1023", "standard-364"],
)
def test_is_perfect_transform_forms_no_eigenspace_basis(build, spec):
    # the dimension is N less the count of the reduced rows, at most r x N; one
    # k x N int64 basis of the eigenspace would exceed this bound four times over
    t = build(spec, 1)
    tracemalloc.start()
    try:
        got = is_perfect_transform(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (True, 1, spec.k)
    assert peak < 0.25 * spec.k * spec.N * 8, peak


def test_apply_and_inverse_roundtrip(golden):
    rng = np.random.default_rng(99)
    for t in golden.values():
        v = rng.integers(0, t.field.p, size=t.n)
        assert np.array_equal(t.apply_inverse(t.apply(v)), v % t.field.p)
    with pytest.raises(ValueError):
        golden["hamming74"].apply([1, 0])
    with pytest.raises(ValueError):
        golden["hamming74"].apply_inverse([[1, 0]] * 7)


def test_apply_via_polynomial_agrees(golden):
    rng = np.random.default_rng(4)
    for name in ["hamming7-cyclic", "golay11-cyclic", "golay23-cyclic"]:
        t = golden[name]
        for _ in range(25):
            v = rng.integers(0, t.field.p, size=t.n)
            assert np.array_equal(apply_via_polynomial(t, v), t.apply(v)), name
        # a batch: row by row the ring product with the first column and apply()
        ring = CyclicRing(t.n, t.field)
        column = FieldPoly(tuple(t.first_column().tolist()), t.field)
        batch = rng.integers(0, t.field.p, size=(25, t.n))
        out = apply_via_polynomial(t, batch)
        assert out.shape == (25, t.n), name
        for v, row in zip(batch, out):
            product = ring.mul(FieldPoly(tuple(v.tolist()), t.field), column)
            assert FieldPoly(tuple(row.tolist()), t.field) == product, name
            assert np.array_equal(row, t.apply(v)), name
    with pytest.raises(ValueError):
        apply_via_polynomial(golden["hamming74"], [0] * 7)
    with pytest.raises(ValueError):
        apply_via_polynomial(golden["hamming7-cyclic"], [0] * 6)
    with pytest.raises(ValueError):
        apply_via_polynomial(golden["hamming7-cyclic"], [[0] * 6] * 2)
    with pytest.raises(ValueError, match="int64"):
        apply_via_polynomial(golden["hamming7-cyclic"], [10**20] + [0] * 6)
    with pytest.raises(ValueError, match="int64"):
        apply_via_polynomial(golden["hamming7-cyclic"], [[10**20] + [0] * 6])


def test_apply_via_polynomial_divides_no_polynomial(golden, monkeypatch):
    # the route reads g off the code, whose check of h already made the one
    # division of x^N - 1, so applying a built transform divides no FieldPoly
    built = [golden[name] for name in ("hamming7-cyclic", "golay11-cyclic", "golay23-cyclic")]
    built.append(build_cyclic(cyclic_hamming_spec(2, 8), 1))
    calls = []
    real_divmod = FieldPoly.__divmod__
    monkeypatch.setattr(FieldPoly, "__divmod__", lambda a, b: calls.append(1) or real_divmod(a, b))
    rng = np.random.default_rng(33)
    for t in built:
        v = rng.integers(0, t.field.p, size=(3, t.n))
        assert np.array_equal(apply_via_polynomial(t, v), t.apply(v)), t
        assert np.array_equal(apply_via_polynomial(t, v[0]), t.apply(v[0])), t
    assert calls == []
    built[0].code.h % built[0].code.g  # the counter does see a division
    assert calls == [1]


def test_impulse_is_first_column(golden):
    for t in golden.values():
        delta = np.zeros(t.n, dtype=np.int64)
        delta[0] = 1
        assert np.array_equal(t.apply(delta), t.first_column()), t.code.label
        assert np.array_equal(t.first_column(), t.matrix[:, 0]), t.code.label


def test_verify_properties_all_pass(golden):
    for t in golden.values():
        report = verify_properties(t, trials=60, seed=11)
        assert report.all_passed, (t.code.label, [c.line() for c in report.checks])
        names = {c.name for c in report.checks}
        if t.form == "cyclic":
            assert {
                "linearity",
                "impulse_response",
                "time_shift",
                "frequency_shift",
                "constant_sequence",
                "polynomial_route",
            } <= names
        else:
            assert {"linearity", "impulse_response"} <= names
            assert "time_shift" not in names


def test_property_failures_count_trials(golden, monkeypatch):
    # swapping two columns breaks the circulant: counts are failing trials
    # (any shift), not failing shifts, and the polynomial route reads only
    # lambda and the code's h, which give the unbroken T (the swap leaves
    # column 0, lambda + x^r h, alone), so it fails exactly where the images
    # differ; the shift certificate fails, so the counts come from the
    # sampled products
    t = golden["hamming7-cyclic"]
    m = t.matrix.data.copy()
    m[:, [2, 5]] = m[:, [5, 2]]
    # through the one tail as T = lambda*I + A*K with A = M - lambda*I, K = I_N
    a = FieldMatrix(t.field, m) - FieldMatrix.identity(t.field, t.n).scaled(t.lam)
    broken = _finish(t.code, t.lam, a, FieldMatrix.identity(t.field, t.n), t.form)
    assert broken.matrix == FieldMatrix(t.field, m)
    assert broken.form == "cyclic"
    assert broken.inverse_matrix == inverse(broken.matrix)
    assert broken.det == determinant(broken.matrix)
    assert not transforms.certify_shift_invariance(broken)
    sampled = _spy_on_sampling(monkeypatch)
    report = verify_properties(broken, trials=200, seed=3)
    assert len(sampled) == 1
    got = {c.name: (c.passed, c.got) for c in report.checks}
    assert got == {
        "round_trip": (True, "0/200 failures"),
        "inverse_is_circulant": (False, "mismatch"),
        "linearity": (True, "0/200 failures"),
        "impulse_response": (True, "match"),
        "time_shift": (False, "195/200 failures"),
        "frequency_shift": (False, "195/200 failures"),
        "constant_sequence": (True, "match"),
        "polynomial_route": (False, "104/200 failures"),
    }


CYCLIC_GOLDEN = ("hamming7-cyclic", "golay23-cyclic", "golay11-cyclic")


def _spy_on_sampling(monkeypatch) -> list:
    """Record each call of the sampled shift checks; they still run."""
    calls, real = [], transforms.sample_shift_failures
    monkeypatch.setattr(
        transforms, "sample_shift_failures", lambda *args: calls.append(args) or real(*args)
    )
    return calls


def _commutes_with_shift(m: FieldMatrix) -> bool:
    """The dense reference: S*M == M*S, S the shift v -> np.roll(v, 1)."""
    return np.array_equal(np.roll(m.data, 1, axis=0), np.roll(m.data, -1, axis=1))


@pytest.mark.parametrize("name", CYCLIC_GOLDEN)
def test_sampled_shift_checks_agree_with_the_certificate(golden, monkeypatch, name):
    # the certified path makes no shifted product; the loop, called directly
    # and through the suite, finds no failure and gives the same report
    t = golden[name]
    sampled = _spy_on_sampling(monkeypatch)
    certified = verify_properties(t, trials=50, seed=8)
    assert transforms.certify_shift_invariance(t) and sampled == []
    vs = np.random.default_rng(8).integers(0, t.field.p, size=(50, t.n))
    time_failed, freq_failed = transforms.sample_shift_failures(t, vs, t.apply(vs))
    assert not time_failed.any() and not freq_failed.any()
    monkeypatch.setattr(transforms, "certify_shift_invariance", lambda t: False)
    assert verify_properties(t, trials=50, seed=8).lines() == certified.lines()
    assert len(sampled) == 2


def _doubled_inverse(t):
    """2*T^-1 = 2*lambda'*I + 2*A'*K as the inverse side, over GF(3)."""
    inv = t._inverse
    return dataclasses.replace(
        t, _inverse=matrix.Factored(2 * inv.scalar % 3, inv.a.scaled(2), inv.k)
    )


def _doubled_inverse_factor(t):
    """lambda'*I + 2*A'*K as the inverse side: it still commutes with the shift."""
    inv = t._inverse
    return dataclasses.replace(t, _inverse=matrix.Factored(inv.scalar, inv.a.scaled(2), inv.k))


def _inverse_over_the_identity(t):
    """The true inverse, as lambda'*I + (T^-1 - lambda'*I)*I_N: K is not shared."""
    inv, identity = t._inverse, FieldMatrix.identity(t.field, t.n)
    a = t.inverse_matrix - identity.scaled(inv.scalar)
    return dataclasses.replace(t, _inverse=matrix.Factored(inv.scalar, a, identity))


def _k_off_its_shifts(t):
    """T = I + A*K over GF(2), A the ones column and K = [1 1 0 ... 0].

    S*A = A*R holds with R = [1], but K's row space is not shift invariant, so
    T is not circulant.
    """
    k = np.zeros((1, t.n), dtype=np.int64)
    k[0, :2] = 1
    ones = FieldMatrix(GF2, np.ones((t.n, 1), dtype=np.int64))
    return _finish(t.code, 1, ones, FieldMatrix(GF2, k), t.form)


@pytest.mark.parametrize(
    "name,broken,shift_verdicts",
    [
        # each case breaks one condition of the certificate and keeps the others
        ("golay11-cyclic", _doubled_inverse, (True, False)),
        ("golay11-cyclic", _doubled_inverse_factor, (True, False)),
        ("hamming7-cyclic", _inverse_over_the_identity, (True, True)),
        ("hamming7-cyclic", _k_off_its_shifts, (False, True)),
    ],
    ids=["lambda-product", "inverse-identity", "shared-k", "k-shift"],
)
def test_shift_certificate_fails_on_each_broken_identity(golden, monkeypatch, name, broken, shift_verdicts):
    t = broken(golden[name])
    # the dense truth: whether T commutes with the shift, and whether the
    # inverse side inverts T
    commutes, inverts = shift_verdicts
    assert _commutes_with_shift(t.matrix) == commutes
    assert (t.inverse_matrix @ t.matrix == FieldMatrix.identity(t.field, t.n)) == inverts
    assert not transforms.certify_shift_invariance(t)
    sampled = _spy_on_sampling(monkeypatch)
    got = {c.name: c.passed for c in verify_properties(t, trials=30, seed=4).checks}
    assert len(sampled) == 1
    assert (got["time_shift"], got["frequency_shift"]) == (commutes, commutes and inverts)


def _splitmix64(seed: int, count: int) -> list[int]:
    """The reference generator, one output at a time in Python integers."""
    word, state, out = 2**64 - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & word
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & word
        z = (z ^ z >> 27) * 0x94D049BB133111EB & word
        out.append(z ^ z >> 31)
    return out


def test_trial_stream_is_splitmix64_across_chunks_and_draws():
    # SplitMix64(0) begins e220a8397b1dcdaf; draws of 70001 and 3 x 2 entries
    # cross a chunk boundary and continue the stream where the last stopped
    assert _splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    p = 2_097_143
    stream = transforms._TrialStream(12345)
    first, second = stream.residues(p, (70001,)), stream.residues(p, (3, 2))
    expected = [z % p for z in _splitmix64(12345, 70007)]
    assert first.tolist() == expected[:70001]
    assert second.ravel().tolist() == expected[70001:]


@pytest.mark.parametrize("p", [2, 3, 7, 2_097_143])
def test_trial_stream_draws_residues(p):
    draw = lambda seed, shape=(40, 23): transforms._TrialStream(seed).residues(p, shape)
    batch = draw(5)
    assert batch.dtype == np.int64 and batch.shape == (40, 23)
    assert batch.min() >= 0 and batch.max() < p
    assert np.array_equal(draw(5), batch)
    assert not np.array_equal(draw(6), batch)
    stream = transforms._TrialStream(5)
    assert np.array_equal(stream.residues(p, (40, 23)), batch)
    assert not np.array_equal(stream.residues(p, (40, 23)), batch)
    assert draw(5, (7, 2)).shape == (7, 2)
    if p <= 7:
        assert set(np.unique(draw(9, (1000, 23)))) == set(range(p))


def test_trial_stream_takes_every_non_negative_seed(golden):
    # a seed past 2**64 folds its high words into the key, so it neither
    # fails nor repeats the stream of its low word
    batches = [transforms._TrialStream(s).residues(7, (4, 23)) for s in (0, 2**31 - 1, 2**70)]
    assert not any(np.array_equal(a, b) for i, a in enumerate(batches) for b in batches[i + 1 :])
    for seed in (0, 2**31 - 1, 2**70):
        assert verify_properties(golden["golay11-cyclic"], trials=20, seed=seed).all_passed


def test_check_line_format():
    report = verify_properties(
        build_standard(hamming74_systematic(), 1), trials=5, seed=0
    )
    for line in report.lines():
        assert line.startswith("CHECK ")
        assert " PASS " in line or " FAIL " in line
        assert "expected=" in line and "got=" in line


def test_constant_sequences_scale_by_row_sum(golden):
    for name in ["hamming7-cyclic", "golay11-cyclic", "golay23-cyclic"]:
        t = golden[name]
        p = t.field.p
        s = int(t.matrix.data[0].sum() % p)
        for r in range(p):
            out = t.apply([r] * t.n)
            assert out.tolist() == [(r * s) % p] * t.n, name


def test_appendix_matches_null_row_standard():
    spec = golay_spec("ternary_systematic")
    b_block = spec.H.data[:, :6]
    p_block = FieldMatrix(GF3, (-b_block.T) % 3)
    t_app = build_appendix_systematic(p_block, 1)
    t_std = build_standard(spec, 1)
    assert t_app.matrix == t_std.matrix
    assert t_app.inverse_matrix == t_std.inverse_matrix
    assert t_app.code.H == spec.H
    assert t_app.form == FORM_STANDARD_NULLROW

    # same agreement for the [7,4] binary fixture
    h74 = hamming74_systematic()
    p74 = FieldMatrix(GF2, h74.H.data[:, :4].T)  # -1 = 1 over GF(2)
    assert build_appendix_systematic(p74, 1).matrix == build_standard(h74, 1).matrix


def test_appendix_rejects_lambda_zero():
    p_block = FieldMatrix(GF3, [[1, 2], [0, 1], [2, 2]])
    with pytest.raises(EigenvalueUnsuitableError) as exc:
        build_appendix_systematic(p_block, 0)
    assert exc.value.lam == 0


def test_appendix_determinant_check_catches_bad_blocks():
    # with a 1x1 block P = [lambda], det = (lambda - P) * lambda = 0 even
    # though lambda != 0, so the invertibility claim needs the explicit check
    with pytest.raises(EigenvalueUnsuitableError):
        build_appendix_systematic(FieldMatrix(GF3, [[2]]), 2)


def test_appendix_eigenspace_is_code():
    p_block = FieldMatrix(GF3, [[1, 2], [0, 1], [2, 2]])
    # lambda=1 happens to be singular for this block; 2 is admissible
    with pytest.raises(EigenvalueUnsuitableError):
        build_appendix_systematic(p_block, 1)
    t = build_appendix_systematic(p_block, 2)
    assert t.n == 5 and t.code.k == 3
    assert eigenspace(t) == kernel_basis(t.code.H)
    # det = lambda^k det(M) with lambda^k = 2^3 = 2 over GF(3): the block
    # determinant and inverse agree with the dense ones
    assert t.det == determinant(t.matrix) == 2
    assert build_appendix_systematic(p_block, 3**50 + 2).matrix == t.matrix
    assert t.inverse_matrix == inverse(t.matrix)
    for v in np.random.default_rng(3).integers(0, 3, size=(5, 5)):
        assert np.array_equal(t.apply_inverse(v), t.inverse_matrix.mat_vec(v))

    # r > k, where the appendix block matrix's eigenspace is not the code: the
    # APPLY_CASES block, and seeded blocks over small fields at every lambda
    # each admits
    built = [dict(APPLY_CASES)["appendix-r>k"]()]
    rng = np.random.default_rng(32)
    for p in (2, 3, 5, 7):
        for k, r in ((k, r) for r in range(2, 6) for k in range(1, r)):
            for _ in range(3):
                p_block = FieldMatrix(PrimeField(p), rng.integers(0, p, size=(k, r)))
                for lam in range(p):
                    try:
                        built.append(build_appendix_systematic(p_block, lam))
                    except EigenvalueUnsuitableError:
                        continue
    assert len(built) > 200
    for t in built:
        reduced, rank, _ = rref(t.code.H)
        assert t.code.k < t.code.redundancy
        assert eigenspace_rows(t) == FieldMatrix(t.field, reduced.data[:rank]), t


def test_transform_serialization_header():
    t = build_cyclic(golay_spec("ternary"), 1)
    text = format_transform(t)
    lines = text.splitlines()
    assert lines[0] == "transform form=cyclic lambda=1 code=golay(11,6,5)"
    assert parse_matrix(text) == t.matrix


# built once: hypothesis examples below only need read access
_T23 = build_cyclic(golay_spec("binary"), 1)
_T11 = build_cyclic(golay_spec("ternary"), 1)
_G11 = None


@settings(deadline=None)
@given(st.lists(st.integers(0, 1), min_size=23, max_size=23), st.integers(0, 22))
def test_shift_commutation_binary_golay(v, m):
    v = np.array(v, dtype=np.int64)
    assert np.array_equal(_T23.apply(np.roll(v, m)), np.roll(_T23.apply(v), m))


@settings(deadline=None)
@given(st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_random_codeword_fixed_ternary(msg):
    global _G11
    if _G11 is None:
        from helpers import generator_from_parity

        _G11 = generator_from_parity(_T11.code)
    word = (np.array(msg, dtype=np.int64) @ _G11.data) % 3
    assert np.array_equal(_T11.apply(word), word)

# -- structured transforms against the dense path ---------------------------------

HAMMING_UP_TO_400 = [
    (p, m)
    for p in range(2, 400)
    if is_prime(p)
    for m in range(2, 10)
    if (p**m - 1) // (p - 1) <= 400
]


# every cyclic Hamming code up to N = 2047; cyclic_hamming_spec needs gcd(m, p - 1) = 1
CYCLIC_HAMMING_UP_TO_2047 = [
    (p, m)
    for p in range(2, 2048)
    if is_prime(p)
    for m in range(2, 12)
    if (p**m - 1) // (p - 1) <= 2047 and math.gcd(m, p - 1) == 1
]


@pytest.mark.parametrize(
    "make_spec",
    [partial(golay_spec, "binary"), partial(golay_spec, "ternary")]
    + [partial(cyclic_hamming_spec, p, m) for p, m in CYCLIC_HAMMING_UP_TO_2047],
    ids=lambda make: "-".join(map(str, make.args)),
)
def test_cyclic_factors_match_the_product_route(make_spec, monkeypatch):
    # build_cyclic lays out H_e from the parity rows; the column route folds
    # x^r h(x) mod x^N - 1. A and K do not depend on lambda, so they are read
    # off at _finish, also where lambda = 1 is singular (p = 2, m = 11)
    spec = make_spec()
    assert parity_rows_from_check_poly(spec.h, spec.N) == spec.H
    monkeypatch.setattr(transforms, "_finish", lambda code, lam, a, k, form: (a, k))
    a, k = build_cyclic(spec, 1)
    want_a, want_k = cyclic_factors_from_the_product(spec)
    assert k == want_k
    assert np.array_equal(a.data, want_a)


def _dense_reference(spec, form, lam):
    """T = H_e + lambda*I assembled densely, without the structured builders."""
    if form == "cyclic":
        he = circulant_from_first_row(spec.field, reversed_coefficient_row(spec.h, spec.N))
    else:
        h = spec.H.data
        if form == "extended":
            extra = np.array([h[a] + h[b] for a, b in EXTENDED_GOLAY_COMBINATION_PAIRS])
        else:
            extra = np.zeros((spec.k, spec.N), dtype=np.int64)
        he = FieldMatrix(spec.field, np.vstack([h, extra]))
    return he + FieldMatrix.identity(spec.field, spec.N).scaled(lam)


@pytest.mark.parametrize("p,m", HAMMING_UP_TO_400)
def test_structure_matches_dense_path(monkeypatch, p, m):
    rng = np.random.default_rng(p * 100 + m)
    for form, make_spec, build in (
        ("standard", hamming_parity_check, build_standard),
        ("cyclic", cyclic_hamming_spec, build_cyclic),
    ):
        try:
            spec = make_spec(p, m)
        except UnsupportedParametersError:
            continue
        for lam in sorted({1, p - 1}):
            dense = _dense_reference(spec, form, lam)
            try:
                t = build(spec, lam)
            except EigenvalueUnsuitableError:
                assert determinant(dense) == 0, (p, m, form, lam)
                continue
            assert t.matrix == dense, (p, m, form, lam)
            assert t.det == determinant(t.matrix) != 0, (p, m, form, lam)
            assert t.inverse_matrix == inverse(t.matrix), (p, m, form, lam)
            if form == "cyclic":
                # the ring route: det T = Res(x^N - 1, c), and T^-1's first column is c^-1
                ring = CyclicRing(spec.N, spec.field)
                det, c_inv = ring_inverse(ring, FieldPoly(tuple(t.first_column().tolist()), spec.field))
                assert t.det == det, (p, m, lam)
                assert FieldPoly(tuple(t.inverse_matrix[:, 0].tolist()), spec.field) == c_inv
            vs = rng.integers(0, p, size=(4, spec.N))
            for route, dense_t in ((t.apply, t.matrix), (t.apply_inverse, t.inverse_matrix)):
                # the reference is the plain int64 product, not the chain
                with monkeypatch.context() as mp:
                    _forbid_the_factored_chain(mp)
                    want = np.array([dense_t.mat_vec(v) for v in vs])
                assert np.array_equal(route(vs), want), (p, m, form, lam)
                assert all(np.array_equal(route(v), w) for v, w in zip(vs, want))


def _cyclic_hamming_builds():
    """Every cyclic Hamming transform with N <= 255 that builds, at lambda = 1 and p - 1."""
    built = []
    for p, m in (pm for pm in HAMMING_UP_TO_400 if (pm[0] ** pm[1] - 1) // (pm[0] - 1) <= 255):
        try:
            spec = cyclic_hamming_spec(p, m)
        except UnsupportedParametersError:
            continue
        for lam in sorted({1, p - 1}):
            try:
                built.append(build_cyclic(spec, lam))
            except EigenvalueUnsuitableError:
                continue
    return built


def test_shift_certificate_holds_on_every_cyclic_build(golden):
    # the golden cyclic targets and every cyclic Hamming build with N <= 255;
    # the dense views confirm the verdict
    built = [golden[name] for name in CYCLIC_GOLDEN] + _cyclic_hamming_builds()
    assert len(built) == 17
    for t in built:
        assert transforms.certify_shift_invariance(t), t
        assert _commutes_with_shift(t.matrix) and _commutes_with_shift(t.inverse_matrix), t


# each parameter: (form, code constructor) pairs
EIGEN_INPUTS = [
    *(
        pytest.param(
            (("standard", partial(hamming_parity_check, p, m)),
             ("cyclic", partial(cyclic_hamming_spec, p, m))),
            id=f"{p}-{m}",
        )
        for p, m in HAMMING_UP_TO_400
        if p <= 7 and p**m < 300
    ),
    pytest.param(
        (("standard", partial(golay_spec, "binary")), ("cyclic", partial(golay_spec, "binary"))),
        id="golay-p2",
    ),
    pytest.param(
        (("standard", partial(golay_spec, "ternary_systematic")),
         ("cyclic", partial(golay_spec, "ternary"))),
        id="golay-p3",
    ),
    pytest.param((("extended", partial(golay_spec, "extended_ternary")),), id="golay-p3-extended"),
    pytest.param((("standard", shortened_hamming_6_3),), id="control"),
]


@pytest.mark.parametrize("forms", EIGEN_INPUTS)
def test_eigen_candidates_match_dense_determinants(forms):
    for form, make_spec in forms:
        try:
            spec = make_spec()
        except UnsupportedParametersError:
            continue
        lams = range(spec.field.p)
        want = [(lam, determinant(_dense_reference(spec, form, lam))) for lam in lams]
        assert eigen_candidates(spec, BUILDERS[form]) == want, (spec.label, form)


@pytest.mark.parametrize(
    "build,spec",
    [
        (build_standard, hamming_parity_check(2, 8)),
        (build_standard, hamming_parity_check(7, 4)),
        (build_cyclic, cyclic_hamming_spec(2, 8)),
        (build_extended_golay, golay_spec("extended_ternary")),
        (build_appendix_systematic, FieldMatrix(GF3, -golay_spec("ternary_systematic").H[:, :6].T)),
    ],
    ids=["standard-255", "standard-400", "cyclic-255", "extended-12", "appendix-11"],
)
def test_structured_builds_take_no_dense_determinant(monkeypatch, build, spec):
    # every builder certifies through one r x r determinant and inverse
    shapes = []
    for module in (transforms, matrix):
        for name in ("determinant", "inverse"):
            real = getattr(module, name)
            spy = lambda m, real=real: shapes.append(m.shape) or real(m)
            monkeypatch.setattr(module, name, spy)
    t = build(spec, 1)
    r = t.code.redundancy
    if isinstance(spec, CodeSpec):
        eigen_candidates(spec, build)
    assert shapes and all(shape == (r, r) for shape in shapes), shapes
    assert r < t.n


# each builder's transform, with a lambda it admits: (label, build)
APPLY_CASES = [
    ("standard", lambda: build_standard(hamming_parity_check(5, 2), 3)),
    ("cyclic", lambda: build_cyclic(cyclic_hamming_spec(3, 3), 2)),
    ("extended", lambda: build_extended_golay(golay_spec("extended_ternary"), 1)),
    # r = 5 <= k = 6, and r = 5 > k = 2
    ("appendix-r<=k", lambda: build_appendix_systematic(
        FieldMatrix(GF3, -golay_spec("ternary_systematic").H[:, :6].T), 1)),
    ("appendix-r>k", lambda: build_appendix_systematic(
        FieldMatrix(PrimeField(7), [[1, 5, 0, 3, 6], [2, 0, 4, 1, 1]]), 3)),
    ("lambda0-k0", lambda: build_standard(
        CodeSpec(GF3, 2, 0, None, FieldMatrix(GF3, [[2, 1], [1, 0]]), None, "zero"), 0)),
]


def test_eigenspace_from_the_factors_matches_the_dense_reference(golden):
    # ker(R*K), R the nonzero rows of rref(A), against the elimination of the
    # dense T - lambda*I, on every golden target, the appendix builds with
    # r <= k and r > k, and every cyclic Hamming build with N <= 255
    appendix = [build() for name, build in APPLY_CASES if name.startswith("appendix")]
    for t in [*golden.values(), *appendix, *_cyclic_hamming_builds()]:
        assert eigenspace(t) == dense_eigenspace(t), t
        reduced, rank, _ = rref(t.matrix - FieldMatrix.identity(t.field, t.n).scaled(t.lam))
        assert eigenspace_rows(t) == FieldMatrix(t.field, reduced.data[:rank]), t
        # K's rows lie in H's row space: rank [H; K] = rank H
        stacked = FieldMatrix(t.field, np.vstack([t.code.H.data, t._forward.k.data]))
        assert rref(stacked)[1] == rref(t.code.H)[1], t


@pytest.mark.parametrize("build", [b for _, b in APPLY_CASES], ids=[n for n, _ in APPLY_CASES])
def test_apply_matches_the_dense_views(build):
    # apply is lambda*v + A*(K*v), never T itself; the dense views are the
    # reference, entry for entry, for vectors and for (rows, N) batches
    t = build()
    p = t.field.p
    vs = np.random.default_rng(t.n).integers(0, p, size=(6, t.n))
    for route, dense in ((t.apply, t.matrix), (t.apply_inverse, t.inverse_matrix)):
        want = (vs @ dense.data.T) % p
        assert np.array_equal(route(vs), want)
        assert all(np.array_equal(route(v), w) for v, w in zip(vs, want))
        assert route(vs[:0]).shape == (0, t.n)


def _apply_inputs(p: int, n: int) -> dict:
    """name -> apply input: int64 arrays in every layout, which are read without
    a copy, and every other kind of input, which is converted first."""
    rows = np.random.default_rng(n).integers(-10, 10, size=(4, n))
    big = np.zeros((8, 3 * n), dtype=np.int64)
    big[::2, ::3] = rows
    return {
        "c-ordered": rows,
        "vector": rows[0].copy(),
        "strided": big[::2, ::3],
        "strided-vector": big[0, ::3],
        "transposed": np.asfortranarray(rows),
        "broadcast": np.broadcast_to(rows[0], (3, n)),
        "extremes": np.array([[-(2**63), 2**63 - 1, p, -1] + [0] * (n - 4)]),
        "empty": np.zeros((0, n), dtype=np.int64),
        "int32": rows.astype(np.int32),
        "uint8": (rows % 256).astype(np.uint8),
        "uint64": np.full(n, 2**63 - 1, dtype=np.uint64),
        "object": rows.astype(object),
        "list": rows.tolist(),
        "list-vector": rows[0].tolist(),
    }


_NOT_INTEGERS = "entries must be integers, in rows of equal length; got "
_APPLY_REFUSALS = {
    "uint64-past-2**63": (
        lambda n: np.array([2**63] + [0] * (n - 1), dtype=np.uint64),
        "entries must lie in the int64 range [-2**63, 2**63)",
    ),
    "object-past-2**63": (
        lambda n: np.array([2**70] + [0] * (n - 1), dtype=object),
        "entries must lie in the int64 range [-2**63, 2**63)",
    ),
    "bool": (lambda n: np.ones((2, n), dtype=bool), _NOT_INTEGERS + "bool"),
    "float": (lambda n: np.ones(n), _NOT_INTEGERS + "float"),
    "ragged": (lambda n: [[1] * n, [1]], _NOT_INTEGERS + "list"),
    "long": (lambda n: np.zeros(n + 1, dtype=np.int64), "expected a length-{n} vector, got {m}"),
    "long-list": (lambda n: [0] * (n + 1), "expected a length-{n} vector, got {m}"),
    "0-d": (lambda n: np.array(3), "expected a vector or a 2-D batch of them, got shape ()"),
    "3-d": (
        lambda n: np.zeros((2, 2, n), dtype=np.int64),
        "expected a vector or a 2-D batch of them, got shape (2, 2, {n})",
    ),
}


@pytest.mark.parametrize("build", [b for _, b in APPLY_CASES[:2]], ids=["standard", "cyclic"])
def test_apply_reads_every_input_kind_without_changing_it(build):
    # an int64 array is read in place, and every other input converted, with
    # the same results and refusals; the caller's array is never written to,
    # and no result shares memory with it
    t = build()
    p, n = t.field.p, t.n
    for route, dense in ((t.apply, t.matrix), (t.apply_inverse, t.inverse_matrix)):
        for name, v in _apply_inputs(p, n).items():
            kept = np.array(v, dtype=object)
            got = route(v)
            residues = np.array(kept % p, dtype=np.int64)
            assert got.dtype == np.int64 and got.shape == residues.shape, name
            assert got.tolist() == python_product(residues, dense.data.T, p), name
            assert np.array_equal(np.array(v, dtype=object), kept), name
            assert not (isinstance(v, np.ndarray) and np.shares_memory(got, v)), name
        for name, (make, message) in _APPLY_REFUSALS.items():
            v = make(n)
            with pytest.raises(ValueError) as exc:
                route(v)
            assert str(exc.value) == message.format(n=n, m=n + 1), name


@pytest.mark.parametrize("build", [b for _, b in APPLY_CASES], ids=[n for n, _ in APPLY_CASES])
def test_products_with_the_dense_views_run_through_the_factors(monkeypatch, build):
    # only rows @ view.T runs through the factors, and it multiplies by none of
    # the N x N data; view @ X, view.mat_vec and view.T @ X are plain int64
    # products, which run no factored chain. All equal Python-int products,
    # and no view holds a float array
    t = build()
    p, n = t.field.p, t.n
    rng = np.random.default_rng(n)
    real_ints = matrix._as_ints
    for view, side in ((t.matrix, t._forward), (t.inverse_matrix, t._inverse)):
        assert view._factors == (side, False)
        assert view.transpose()._factors == (side, True)
        assert view.transpose().transpose()._factors == (side, False)
        dense = view.data
        operands = list(side.floats or ())
        for count in (1, 3, 64, 300):
            rows = rng.integers(0, p, size=(count, n))
            with monkeypatch.context() as mp:
                mp.setattr(matrix, "_as_ints", lambda x: operands.append(x) or real_ints(x))
                got = FieldMatrix(t.field, rows) @ view.transpose()
            assert got.tolist() == python_product(rows, dense.T, p)
            assert got._factors is None
            with monkeypatch.context() as mp:
                _forbid_the_factored_chain(mp)
                right = view @ FieldMatrix(t.field, rows.T)
                vector = view.mat_vec(rows[0])
                left = view.transpose() @ FieldMatrix(t.field, rows.T)
            assert right.tolist() == python_product(dense, rows.T, p)
            assert vector.tolist() == python_product(dense, rows[0], p)
            assert left.tolist() == python_product(dense.T, rows.T, p)
            assert right._factors is None and left._factors is None
        for x in operands:
            data = x.data if isinstance(x, FieldMatrix) else x
            assert not np.may_share_memory(data, dense), x.shape
        assert holds_no_float_array(view) and holds_no_float_array(view.transpose())


def test_products_raise_no_floating_point_flag(golden):
    # every golden transform's float products, with every floating-point flag
    # an error: vectors and batches through apply and apply_inverse, and
    # products with both dense views and their transposes on either side
    rng = np.random.default_rng(18)
    with np.errstate(all="raise"):
        for name, t in golden.items():
            p = t.field.p
            rows = rng.integers(0, p, size=(64, t.n))
            batch = FieldMatrix(t.field, rows)
            for route, view in ((t.apply, t.matrix), (t.apply_inverse, t.inverse_matrix)):
                want, want_left = rows @ view.data.T % p, rows @ view.data % p
                assert np.array_equal(route(rows), want), name
                assert all(np.array_equal(route(v), w) for v, w in zip(rows, want)), name
                assert np.array_equal((batch @ view.transpose()).data, want), name
                assert np.array_equal((view @ batch.transpose()).data, want.T), name
                assert np.array_equal(view.mat_vec(rows[0]), want[0]), name
                assert np.array_equal((batch @ view).data, want_left), name
                left = view.transpose() @ batch.transpose()
                assert np.array_equal(left.data, want_left.T), name


def test_only_products_keep_a_view_factored():
    t = build_standard(hamming_parity_check(5, 2), 3)
    view = t.matrix
    for plain in (
        view - FieldMatrix.identity(t.field, t.n).scaled(t.lam),
        view.scaled(1),
        view + view,
        view @ t.inverse_matrix,
        view.transpose() @ view,
        parse_matrix(format_transform(t)),
    ):
        assert plain._factors is None
    assert np.array_equal((view @ t.inverse_matrix).data, np.eye(t.n, dtype=np.int64))
    assert np.array_equal((view.transpose() @ view).data, view.data.T @ view.data % 5)


def test_cyclic_1023_builds_and_2047_is_refused_quickly():
    spec = cyclic_hamming_spec(2, 10)
    start = time.perf_counter()
    t = build_cyclic(spec, 1)
    assert time.perf_counter() - start < 0.3
    v = np.random.default_rng(10).integers(0, 2, size=1023)
    assert np.array_equal(t.apply_inverse(t.apply(v)), v)
    assert np.array_equal(t.apply(np.roll(v, 5)), np.roll(t.apply(v), 5))
    batch = np.stack([v, np.roll(v, 1)])
    assert np.array_equal(t.apply_inverse(t.apply(batch)), batch)
    # apply costs O(rN): no dense view was formed
    for side in (t._forward, t._inverse):
        assert "dense" not in vars(side)

    spec = cyclic_hamming_spec(2, 11)
    start = time.perf_counter()
    with pytest.raises(EigenvalueUnsuitableError):
        build_cyclic(spec, 1)
    assert time.perf_counter() - start < 0.1
