import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import code_in_eigenspace_by_blocks
from perfectnt import matrix, transforms, verify
from perfectnt.codes import UnsupportedParametersError, perfect_code_witness
from perfectnt.gf import is_prime
from perfectnt.matrix import FieldMatrix
from perfectnt.transforms import (
    EigenvalueUnsuitableError,
    check_trials,
    is_perfect_transform,
    verify_properties,
)
from perfectnt.verify import (
    GOLDEN_LAMBDA,
    GOLDEN_TARGETS,
    GoldenTarget,
    run_target,
    select_targets,
)


def test_targets_are_unique_and_covered():
    names = [t.name for t in GOLDEN_TARGETS]
    assert len(names) == len(set(names)) == 8
    assert all("witness" in t.claims for t in GOLDEN_TARGETS)


def test_select_all():
    assert select_targets() == list(GOLDEN_TARGETS)


def test_select_by_family():
    golay = select_targets(family="golay")
    assert [t.name for t in golay] == [
        "golay23-cyclic",
        "golay11-cyclic",
        "golay11-systematic",
        "extended-golay12",
    ]
    assert [t.name for t in select_targets(family="control")] == ["control63"]


def test_select_narrow():
    picked = select_targets(family="golay", p=3, form="cyclic")
    assert [t.name for t in picked] == ["golay11-cyclic"]
    picked = select_targets(family="hamming", p=2, m=3, form="cyclic")
    assert [t.name for t in picked] == ["hamming7-cyclic"]


def test_select_dynamic_hamming_target():
    picked = select_targets(family="hamming", p=2, m=4, form="cyclic")
    assert len(picked) == 1
    target = picked[0]
    assert target.name == "hamming-p2-m4-cyclic"
    summary, checks = run_target(target, target.build(), trials=20, seed=3)
    assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]
    assert "det≠0" in summary


def test_select_no_match():
    assert select_targets(family="golay", p=5) == []
    assert select_targets(family="hamming", p=2, m=4, form="extended") == []


@pytest.mark.parametrize("target", GOLDEN_TARGETS, ids=lambda t: t.name)
def test_every_golden_target_passes(target):
    summary, checks = run_target(target, target.build(), trials=40, seed=5)
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, failed
    assert "det≠0" in summary
    if target.name == "golay11-cyclic":
        assert "order=242" in summary


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_refused(golden, trials):
    with pytest.raises(ValueError, match="trials"):
        run_target(GOLDEN_TARGETS[0], GOLDEN_TARGETS[0].build(), trials=trials)
    with pytest.raises(ValueError, match="trials"):
        verify_properties(golden["hamming7-cyclic"], trials=trials)


def test_negative_seed_refused_before_any_draw(golden, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew with a negative seed")

    monkeypatch.setattr(transforms, "_TrialStream", no_draw)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        verify_properties(golden["hamming7-cyclic"], seed=-1)


def test_trial_bound_admits_every_product_up_to_2_pow_24():
    # the bound is on trials * N itself: 1000 trials fit every admitted length
    for n in (7, 23, 255, 400, 16383):
        check_trials(2**24 // n, n)
        with pytest.raises(ValueError, match="exceeds the bound"):
            check_trials(2**24 // n + 1, n)
    check_trials(1000, 16383)


@pytest.mark.parametrize(
    "target",
    [*GOLDEN_TARGETS, *select_targets(family="hamming", p=3, m=3, form="cyclic")],
    ids=lambda t: t.name,
)
def test_run_target_computes_the_eigenspace_once(monkeypatch, target):
    # run_target reduces the eigenspace's rows once, in either module, and H
    # never, reading rref(H) off the code; the k x N basis it forms to compare
    # with a stored generator comes from the rows it holds, not from a second
    # reduction; and it applies T only in verify_properties
    t = target.build()
    rows, reductions, applies = [], [], []
    real_apply = transforms.TransformSpec.apply
    monkeypatch.setattr(
        transforms.TransformSpec, "apply", lambda t, v: applies.append(v) or real_apply(t, v)
    )
    for module in (transforms, verify):
        real = module.eigenspace_rows
        monkeypatch.setattr(module, "eigenspace_rows", lambda t, real=real: rows.append(t) or real(t))
    for module in (matrix, verify):
        real = module.rref
        monkeypatch.setattr(module, "rref", lambda m, real=real: reductions.append(m) or real(m))
    run_target(target, t, trials=3, seed=1)
    assert len(rows) == 1
    assert sum(np.shares_memory(m.data, t.code.H.data) for m in reductions) == 0
    during_run = len(applies)
    applies.clear()
    verify_properties(target.build(), trials=3, seed=1)
    assert during_run == len(applies) > 0


def test_a_wrong_eigenspace_fails_its_checks():
    # (a) one code's factors under another code's H, columns 0 and 5 swapped:
    # the dimension is k, but the eigenspace is not that code and moves its
    # codewords. (b) a rank-deficient A: the eigenspace is the code and one
    # vector more, so every codeword stays fixed. (c) H with only its last free
    # column, 12, changed: of the free-column basis of ker H only the vector of
    # column 12 moves, the one in the last of the reference's blocks of 3+3+3+1.
    # Each verdict is the one of applying T to the code's basis
    target = GoldenTarget("hamming-p3-m3-standard", "hamming", 3, 3, "standard", {})
    t = target.build()
    with_h = lambda h: dataclasses.replace(t, code=dataclasses.replace(t.code, H=FieldMatrix(t.field, h)))
    h = t.code.H.data.copy()
    h[:, [0, 5]] = h[:, [5, 0]]
    swapped = with_h(h)
    h = t.code.H.data.copy()
    h[:, 12] = (h[:, 12] + h[:, 0]) % 3
    last_moved = with_h(h)
    a = np.eye(3, dtype=np.int64)
    a[:, 1] = 0
    a[2, 0] = 1
    deficient = transforms._finish(
        t.code, 1, FieldMatrix(t.field, a), t.code.H, transforms.FORM_STANDARD_NULLROW
    )
    unequal = "CHECK eigenspace_equals_code FAIL expected=canonical bases identical got=mismatch"
    for bad, want in [
        (swapped, [
            "CHECK eigenspace_dim PASS expected=10 got=10",
            unequal,
            "CHECK codeword_invariance FAIL expected=all 59049 codewords fixed got=moved",
        ]),
        (deficient, [
            "CHECK eigenspace_dim FAIL expected=10 got=11",
            unequal,
            "CHECK codeword_invariance PASS expected=all 59049 codewords fixed got=fixed",
        ]),
        (last_moved, [
            "CHECK eigenspace_dim PASS expected=10 got=10",
            unequal,
            "CHECK codeword_invariance FAIL expected=all 59049 codewords fixed got=moved",
        ]),
    ]:
        _, checks = run_target(target, bad, trials=3, seed=1)
        named = ("eigenspace_dim", "eigenspace_equals_code", "codeword_invariance")
        assert [c.line() for c in checks if c.name in named] == want
        assert _invariance_verdict(checks) == code_in_eigenspace_by_blocks(bad)


def _invariance_verdict(checks) -> bool:
    [check] = [c for c in checks if c.name == "codeword_invariance"]
    return check.passed


def _hamming_builds_up_to_400():
    """Every Hamming selector with N <= 400, in both forms, that builds at lambda = 1."""
    out = []
    for p in filter(is_prime, range(2, 400)):
        for m in itertools.count(2):
            if (p**m - 1) // (p - 1) > 400:
                break
            for form in ("standard", "cyclic"):
                target = GoldenTarget(f"hamming-p{p}-m{m}-{form}", "hamming", p, m, form, {})
                try:
                    target.build()
                except (UnsupportedParametersError, EigenvalueUnsuitableError):
                    continue
                out.append(pytest.param(target, GOLDEN_LAMBDA, id=target.name))
    return out


@pytest.mark.parametrize(
    "target,lam",
    [
        *(pytest.param(t, GOLDEN_LAMBDA, id=t.name) for t in GOLDEN_TARGETS),
        *_hamming_builds_up_to_400(),
        pytest.param(
            GoldenTarget("hamming-p5-m2-standard", "hamming", 5, 2, "standard", {}),
            2,
            id="hamming-p5-m2-standard-lambda2",
        ),
    ],
)
def test_codeword_invariance_agrees_with_applying_t_to_the_code(target, lam):
    # the verdict read off the eigenspace's rows and rref(H) is the one of
    # comparing T b with lambda*b on a basis of the code
    code, build = verify.resolve(target.family, target.p, target.m, target.form)
    t = build(code, lam)
    _, checks = run_target(target, t, trials=1)
    assert _invariance_verdict(checks) == code_in_eigenspace_by_blocks(t)
    assert _invariance_verdict(checks)


def test_every_hamming_code_up_to_400_keeps_its_witness():
    # every Hamming selector with N <= 400 in both forms, at its first nonzero
    # admissible lambda (5 of the 108 codes have none): its columns are the
    # distinct projective points, so the radius is 1 read off rref(H) and off
    # T's eigenspace
    codes = built = 0
    for p in filter(is_prime, range(2, 400)):
        for m in itertools.count(2):
            if (p**m - 1) // (p - 1) > 400:
                break
            for form in ("standard", "cyclic"):
                try:
                    code, build = verify.resolve("hamming", p, m, form)
                except UnsupportedParametersError:
                    continue
                assert perfect_code_witness(code.reduced) == 1, (p, m, form)
                codes += 1
                for lam in range(1, p):
                    try:
                        t = build(code, lam)
                    except EigenvalueUnsuitableError:
                        continue
                    assert is_perfect_transform(t) == (True, 1, code.k), (p, m, form, lam)
                    built += 1
                    break
    assert (codes, built) == (108, 103)


@pytest.mark.parametrize("p,m,form", [(2, 10, "cyclic"), (3, 6, "standard")])
def test_run_target_holds_no_code_basis(p, m, form):
    # the eigenspace is certified by its reduced rows, and codeword_invariance
    # by their product with rref(H): no k x N basis is held, so the peak is a
    # small multiple of r x N
    [target] = select_targets("hamming", p, m, form)
    t = target.build()
    tracemalloc.start()
    try:
        _, checks = run_target(target, t, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 32 * t.code.redundancy * t.n * 8, peak


@pytest.mark.parametrize(
    "target",
    [*GOLDEN_TARGETS, *select_targets("hamming", 3, 3, "cyclic")],
    ids=lambda t: t.name,
)
def test_run_target_draws_and_certifies_once(monkeypatch, target):
    # the round trip, the circulant inverse and the shift checks share one
    # seeded batch and one shift certificate
    draws, certificates = [], []
    real_stream, real_certify = transforms._TrialStream, transforms.certify_shift_invariance
    monkeypatch.setattr(
        transforms, "_TrialStream", lambda *a: draws.append(a) or real_stream(*a)
    )
    monkeypatch.setattr(
        transforms,
        "certify_shift_invariance",
        lambda t: certificates.append(t) or real_certify(t),
    )
    run_target(target, target.build(), trials=3, seed=1)
    assert draws == [(1,)]
    assert len(certificates) == (1 if target.form == "cyclic" else 0)


@pytest.mark.parametrize(
    "target", [t for t in GOLDEN_TARGETS if t.form == "cyclic"], ids=lambda t: t.name
)
def test_inverse_is_circulant_by_certificate_or_dense_fallback(monkeypatch, target):
    # the certified run forms no dense circulant; with the certificate failing,
    # the dense comparison and the sampled shift checks give the same lines
    def refuse(*args):
        raise AssertionError("dense circulant comparison on the certified path")

    monkeypatch.setattr(transforms, "circulant_from_first_row", refuse)
    certified = run_target(target, target.build(), trials=5, seed=2)
    monkeypatch.undo()
    monkeypatch.setattr(transforms, "certify_shift_invariance", lambda t: False)
    assert run_target(target, target.build(), trials=5, seed=2) == certified
    assert ("inverse_is_circulant", True) in {(c.name, c.passed) for c in certified[1]}


@pytest.mark.parametrize(
    "p,m,form", [(2, 4, "standard"), (2, 4, "cyclic"), (3, 4, "standard"), (3, 5, "cyclic")]
)
def test_dynamic_targets_form_no_dense_view(monkeypatch, p, m, form):
    # a target without stored claims is checked from the factors alone: no
    # check reads t.matrix or t.inverse_matrix
    def refuse(operand):
        raise AssertionError("dense N x N view formed")

    monkeypatch.setattr(matrix.Factored, "dense", property(refuse))
    [target] = select_targets("hamming", p, m, form)
    assert not target.claims
    _, checks = run_target(target, target.build(), trials=3, seed=1)
    assert all(check.passed for check in checks)


def test_codeword_count_is_written_as_a_power_past_the_digit_limit():
    # a decimal longer than the interpreter converts is written p^k; a decimal
    # of exactly the limit's length is still written out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert verify._power_text(10, 639) == "1" + "0" * 639
        assert verify._power_text(10, 640) == "10^640"
        assert verify._power_text(31, 990) == "31^990"
    finally:
        sys.set_int_max_str_digits(limit)
    assert verify._power_text(2, 4) == "16"
