import time


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfectnt import matrix, reference, transforms
from perfectnt.codes import (
    UnsupportedParametersError,
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    shortened_hamming_6_3,
)
from perfectnt.gf import PrimeField, is_prime
from perfectnt.matrix import (
    FieldMatrix,
    circulant_from_first_row,
    determinant,
    inverse,
    kernel_basis,
    parse_matrix,
)
from perfectnt.poly import CyclicRing, FieldPoly, reversed_coefficient_row
from perfectnt.transforms import (
    EXTENDED_GOLAY_COMBINATION_PAIRS,
    EigenvalueUnsuitableError,
    InflationStrategy,
    _finish,
    apply_via_polynomial,
    build_appendix_systematic,
    build_cyclic,
    build_extended_golay,
    build_standard,
    eigen_candidates,
    eigenspace,
    format_transform,
    inflate,
    is_perfect_transform,
    verify_properties,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def test_null_row_inflation():
    spec = hamming74_systematic()
    he = inflate(spec, InflationStrategy.null_rows())
    assert he.shape == (7, 7)
    assert he.data[:3].tolist() == spec.H.tolist()
    assert np.count_nonzero(he.data[3:]) == 0


def test_cyclic_inflation_matches_stored_circulant():
    spec = cyclic_hamming_spec(2, 3)
    he = inflate(spec, InflationStrategy.cyclic_shifts())
    assert he == FieldMatrix(GF2, reference.CYCLIC_HAMMING7_INFLATED)


def test_cyclic_inflation_requires_check_poly():
    with pytest.raises(ValueError):
        inflate(hamming74_systematic(), InflationStrategy.cyclic_shifts())


def test_row_combination_validation():
    spec = golay_spec("extended_ternary")
    with pytest.raises(ValueError):
        inflate(spec, InflationStrategy.row_combinations(((0, 1),)))  # wrong count
    bad = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 9))
    with pytest.raises(ValueError):
        inflate(spec, InflationStrategy.row_combinations(bad))  # index out of range
    with pytest.raises(ValueError):
        inflate(spec, InflationStrategy("no_such_kind"))


def test_row_combination_rows_are_sums():
    spec = golay_spec("extended_ternary")
    he = inflate(
        spec, InflationStrategy.row_combinations(EXTENDED_GOLAY_COMBINATION_PAIRS)
    )
    for i, (a, b) in enumerate(EXTENDED_GOLAY_COMBINATION_PAIRS):
        expected = (spec.H.data[a] + spec.H.data[b]) % 3
        assert he.data[6 + i].tolist() == expected.tolist()


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
    t = build_extended_golay(1)
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


def test_build_standard_rejects_cyclic_strategy():
    with pytest.raises(ValueError):
        build_standard(hamming74_systematic(), 1, InflationStrategy.cyclic_shifts())


def test_eigen_candidates_tables():
    assert eigen_candidates(hamming74_systematic()) == [(0, 0), (1, 1)]
    assert eigen_candidates(golay_spec("ternary_systematic")) == [(0, 0), (1, 2), (2, 2)]
    cyclic = eigen_candidates(golay_spec("ternary"), InflationStrategy.cyclic_shifts())
    assert cyclic[0] == (0, 0)
    assert all(det != 0 for _, det in cyclic[1:])


def test_eigenspace_is_code_kernel(golden):
    for t in golden.values():
        assert eigenspace(t) == kernel_basis(t.code.H), t.code.label


def test_eigenspace_other_lambda():
    # for T = H_e + I over GF(3), the 2-eigenspace is ker(H_e - I)
    t = build_standard(golay_spec("ternary_systematic"), 1)
    es2 = eigenspace(t, 2)
    shifted = t.matrix - FieldMatrix.identity(GF3, 11).scaled(2)
    assert es2 == kernel_basis(shifted)


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


def test_apply_and_inverse_roundtrip(golden):
    rng = np.random.default_rng(99)
    for t in golden.values():
        v = rng.integers(0, t.field.p, size=t.n)
        assert np.array_equal(t.apply_inverse(t.apply(v)), v % t.field.p)
    with pytest.raises(ValueError):
        golden["hamming74"].apply([1, 0])


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
            product = ring.mul(ring.from_vector(v.tolist()), column)
            assert tuple(row.tolist()) == ring.to_vector(product), name
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


def test_impulse_is_first_column(golden):
    for t in golden.values():
        delta = np.zeros(t.n, dtype=np.int64)
        delta[0] = 1
        assert np.array_equal(t.apply(delta), t.first_column()), t.code.label


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


def test_property_failures_count_trials(golden):
    # swapping two columns breaks the circulant: counts are failing trials
    # (any shift), not failing shifts, and the polynomial route reads only
    # the first column, so it fails exactly where the images differ
    t = golden["hamming7-cyclic"]
    m = t.matrix.data.copy()
    m[:, [2, 5]] = m[:, [5, 2]]
    broken = _finish(t.code, t.lam, FieldMatrix(t.field, m), t.form)
    assert broken.form == "cyclic"
    assert broken.inverse_matrix == inverse(broken.matrix)
    assert broken.det == determinant(broken.matrix)
    report = verify_properties(broken, trials=200, seed=3)
    got = {c.name: (c.passed, c.got) for c in report.checks}
    assert got == {
        "linearity": (True, "0/200 failures"),
        "impulse_response": (True, "match"),
        "time_shift": (False, "196/200 failures"),
        "frequency_shift": (False, "196/200 failures"),
        "constant_sequence": (True, "match"),
        "polynomial_route": (False, "105/200 failures"),
    }


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
    assert t_app.form == "appendix_systematic"

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


def _dense_reference(spec, form, lam):
    """T = H_e + lambda*I assembled densely, without the structured builders."""
    if form == "cyclic":
        he = circulant_from_first_row(spec.field, reversed_coefficient_row(spec.h, spec.N))
    else:
        he = inflate(spec, InflationStrategy.null_rows())
    return he + FieldMatrix.identity(spec.field, spec.N).scaled(lam)


@pytest.mark.parametrize("p,m", HAMMING_UP_TO_400)
def test_structure_matches_dense_path(p, m):
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
            for v in rng.integers(0, p, size=(4, spec.N)):
                assert np.array_equal(t.apply(v), t.matrix.mat_vec(v))
                assert np.array_equal(t.apply_inverse(v), t.inverse_matrix.mat_vec(v))


@pytest.mark.parametrize("p,m", [(p, m) for p, m in HAMMING_UP_TO_400 if p <= 7 and p**m < 300])
def test_eigen_candidates_match_dense_determinants(p, m):
    for form, make_spec, strategy in (
        ("standard", hamming_parity_check, InflationStrategy.null_rows()),
        ("cyclic", cyclic_hamming_spec, InflationStrategy.cyclic_shifts()),
    ):
        try:
            spec = make_spec(p, m)
        except UnsupportedParametersError:
            continue
        want = [(lam, determinant(_dense_reference(spec, form, lam))) for lam in range(p)]
        assert eigen_candidates(spec, strategy) == want, (p, m, form)


@pytest.mark.parametrize(
    "build,spec",
    [
        (build_standard, hamming_parity_check(2, 8)),
        (build_standard, hamming_parity_check(7, 4)),
        (build_cyclic, cyclic_hamming_spec(2, 8)),
    ],
    ids=["standard-255", "standard-400", "cyclic-255"],
)
def test_structured_builds_take_no_dense_determinant(monkeypatch, build, spec):
    shapes = []
    for module in (transforms, matrix):
        for name in ("determinant", "inverse"):
            real = getattr(module, name)
            spy = lambda m, real=real: shapes.append(m.shape) or real(m)
            monkeypatch.setattr(module, name, spy)
    t = build(spec, 1)
    cyclic = build is build_cyclic
    eigen_candidates(spec, InflationStrategy.cyclic_shifts() if cyclic else None)
    r = spec.redundancy
    assert all(shape == (r, r) for shape in shapes), shapes
    if cyclic:
        assert shapes == []
    assert t.n == spec.N >= 255


def test_cyclic_1023_builds_and_2047_is_refused_quickly():
    spec = cyclic_hamming_spec(2, 10)
    start = time.perf_counter()
    t = build_cyclic(spec, 1)
    assert time.perf_counter() - start < 0.3
    v = np.random.default_rng(10).integers(0, 2, size=1023)
    assert np.array_equal(t.apply_inverse(t.apply(v)), v)
    assert np.array_equal(t.apply(np.roll(v, 5)), np.roll(t.apply(v), 5))

    spec = cyclic_hamming_spec(2, 11)
    start = time.perf_counter()
    with pytest.raises(EigenvalueUnsuitableError):
        build_cyclic(spec, 1)
    assert time.perf_counter() - start < 0.1
