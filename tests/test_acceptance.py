"""Acceptance gate: ten go/no-go criteria over the stored reference builds.

Run `pytest -s tests/test_acceptance.py` to get one PASS/FAIL line per
criterion. Every comparison is exact integer equality — no tolerances.
"""

import numpy as np
import pytest

from perfectnt import reference
from perfectnt.codes import all_codewords, golay_spec
from perfectnt.gf import PrimeField
from perfectnt.matrix import (
    FieldMatrix,
    char_poly,
    circulant_from_first_row,
    determinant,
    kernel_basis,
    multiplicative_order,
    rref,
)
from perfectnt.poly import FieldPoly
from perfectnt.transforms import (
    EigenvalueUnsuitableError,
    build_appendix_systematic,
    build_standard,
    eigenspace,
    is_perfect_transform,
    verify_properties,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)

CYCLIC_NAMES = ("hamming7-cyclic", "golay11-cyclic", "golay23-cyclic")


def _report(num: int, name: str, failures: list[str]) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_01_golden_matrices(golden):
    failures = []
    h7 = golden["hamming7-cyclic"]
    cases = [
        ("hamming74 transform", golden["hamming74"].matrix, reference.matrix(2, reference.HAMMING74_TRANSFORM)),
        ("ternary hamming parity", golden["hamming13"].code.H, reference.matrix(3, reference.TERNARY_HAMMING13_PARITY)),
        ("ternary hamming transform", golden["hamming13"].matrix, reference.matrix(3, reference.TERNARY_HAMMING13_TRANSFORM)),
        ("cyclic hamming parity", h7.code.H, reference.matrix(2, reference.CYCLIC_HAMMING7_PARITY)),
        ("cyclic hamming inflated", h7.matrix - FieldMatrix.identity(GF2, 7).scaled(h7.lam), reference.matrix(2, reference.CYCLIC_HAMMING7_INFLATED)),
        ("cyclic hamming transform", h7.matrix, reference.matrix(2, reference.CYCLIC_HAMMING7_TRANSFORM)),
        ("binary golay transform", golden["golay23-cyclic"].matrix, reference.matrix(2, reference.BINARY_GOLAY23_TRANSFORM)),
        ("ternary cyclic golay transform", golden["golay11-cyclic"].matrix, reference.matrix(3, reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM)),
        ("ternary systematic golay transform", golden["golay11-systematic"].matrix, reference.matrix(3, reference.TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM)),
        ("extended golay transform", golden["extended-golay12"].matrix, reference.matrix(3, reference.EXTENDED_GOLAY12_TRANSFORM)),
        ("extended golay inverse", golden["extended-golay12"].inverse_matrix, reference.matrix(3, reference.EXTENDED_GOLAY12_INVERSE)),
    ]
    for label, got, want in cases:
        if got != want:
            failures.append(label)
    _report(1, "golden_matrices", failures)


def test_02_determinants(golden):
    failures = []
    for name, want in [("golay23-cyclic", 1), ("golay11-systematic", 2), ("extended-golay12", 2)]:
        t = golden[name]
        if t.det != want:
            failures.append(f"{name} stored det {t.det} != {want}")
        if determinant(t.matrix) != want:
            failures.append(f"{name} recomputed det != {want}")
    _report(2, "determinants", failures)


def test_03_ternary_cyclic_golay_order_and_charpoly(golden):
    failures = []
    t = golden["golay11-cyclic"]
    order = multiplicative_order(t.matrix)
    if order != 242:
        failures.append(f"multiplicative order {order} != 242")
    got = char_poly(t.matrix)
    factored = FieldPoly((2, 1), GF3) ** 6 * FieldPoly((1, 1, 1, 1, 2, 1), GF3)
    if got != factored:
        failures.append("characteristic polynomial != (2+x)^6 (1+x+x^2+x^3+2x^4+x^5)")
    if got.coeffs != reference.TERNARY_GOLAY11_CYCLIC_CHARPOLY:
        failures.append("characteristic polynomial != stored coefficients")
    dim = eigenspace(t).rows
    if dim != 6 or 3**dim != 729:
        failures.append(f"eigenspace dimension {dim} != 6")
    _report(3, "cyclic_golay_order_charpoly", failures)


def test_04_ternary_systematic_golay_charpoly(golden):
    failures = []
    t = golden["golay11-systematic"]
    got = char_poly(t.matrix)
    if got.coeffs != reference.TERNARY_GOLAY11_SYSTEMATIC_CHARPOLY:
        failures.append("characteristic polynomial != stored coefficients")
    dim = eigenspace(t).rows
    if dim != 6:
        failures.append(f"eigenspace dimension {dim} != 6")
    _report(4, "systematic_golay_charpoly", failures)


def test_05_perfectness_witnesses(golden):
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
    failures = []
    for name, want in expected.items():
        got = is_perfect_transform(golden[name])
        if got != want:
            failures.append(f"{name}: {got} != {want}")
    _report(5, "sphere_packing_witnesses", failures)


def test_06_eigenspace_is_code(golden):
    failures = []
    for name, t in golden.items():
        if eigenspace(t) != kernel_basis(t.code.H):
            failures.append(f"{name}: eigenspace differs from code kernel")
    stored_g = reference.matrix(2, reference.HAMMING74_GENERATOR)
    if rref(stored_g)[0] != eigenspace(golden["hamming74"]):
        failures.append("hamming74 eigenspace row space differs from stored generator")
    _report(6, "eigenspace_is_code", failures)


def test_07_codeword_invariance(golden):
    counts = {
        "hamming74": 2**4,
        "golay11-cyclic": 3**6,
        "golay11-systematic": 3**6,
        "golay23-cyclic": 2**12,
    }
    failures = []
    for name, count in counts.items():
        t = golden[name]
        words = all_codewords(t.code)
        if words.shape[0] != count:
            failures.append(f"{name}: {words.shape[0]} codewords != {count}")
            continue
        image = (t.matrix.data @ words.T) % t.field.p
        if not np.array_equal(image, words.T):
            failures.append(f"{name}: some codeword moved")
    _report(7, "codeword_invariance", failures)


def test_08_cyclic_property_suite(golden):
    required = {
        "linearity",
        "time_shift",
        "frequency_shift",
        "impulse_response",
        "constant_sequence",
    }
    failures = []
    for name in CYCLIC_NAMES:
        report = verify_properties(golden[name], trials=1000, seed=20260819)
        names = {c.name for c in report.checks}
        if not required <= names:
            failures.append(f"{name}: missing checks {sorted(required - names)}")
        bad = [c.name for c in report.checks if not c.passed]
        if bad:
            failures.append(f"{name}: failing checks {bad}")
        if report.trials < 1000:
            failures.append(f"{name}: only {report.trials} trials")
    _report(8, "cyclic_property_suite", failures)


def test_09_inverse_round_trips(golden):
    failures = []
    for i, (name, t) in enumerate(sorted(golden.items())):
        p, n = t.field.p, t.n
        rng = np.random.default_rng(97 + i)
        vectors = rng.integers(0, p, size=(1000, n))
        image = (t.matrix.data @ vectors.T) % p
        back = (t.inverse_matrix.data @ image) % p
        if not np.array_equal(back, vectors.T):
            failures.append(f"{name}: round trip failed")
    for name in CYCLIC_NAMES:
        inv = golden[name].inverse_matrix
        if circulant_from_first_row(inv.field, inv.data[0]) != inv:
            failures.append(f"{name}: inverse is not circulant")
    _report(9, "inverse_round_trips", failures)


def test_10_appendix_block_construction(golden):
    failures = []
    spec = golay_spec("ternary_systematic")
    p_block = FieldMatrix(GF3, (-spec.H.data[:, :6].T) % 3)
    t_app = build_appendix_systematic(p_block, 1)
    t_std = build_standard(spec, 1)
    if t_app.matrix != t_std.matrix:
        failures.append("appendix transform differs from null-row standard build")
    if t_app.inverse_matrix != t_std.inverse_matrix:
        failures.append("appendix inverse differs")
    if t_app.code.H != spec.H:
        failures.append("appendix parity check differs")
    try:
        build_appendix_systematic(p_block, 0)
        failures.append("lambda=0 was not rejected")
    except EigenvalueUnsuitableError:
        pass
    _report(10, "appendix_block_construction", failures)
