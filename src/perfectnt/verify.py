"""Golden verification: rebuild reference transforms, check every claim.

`resolve` maps a selector (--code/--p/--m/--form, shared with the CLI) to
a code and the builder of its inflation. Each golden target is a selector
plus the frozen claims its build must satisfy (stored matrices,
determinants, characteristic polynomials, multiplicative order, eigenspace
facts, sphere-packing witnesses). Checks are emitted as CheckResult lines
so the CLI can print them directly; everything is recomputed on every run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import reference
from .codes import (
    CodeSpec,
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    perfect_code_witness,
    shortened_hamming_6_3,
)
from .gf import require_integer
from .matrix import (
    FieldMatrix,
    char_poly,
    kernel_basis,
    mulmod,
    multiplicative_order,
    rref,
)
from .poly import FieldPoly
from .transforms import (
    CheckResult,
    TransformSpec,
    build_cyclic,
    build_extended_golay,
    build_standard,
    check_trials,
    eigenspace_rows,
    verify_properties,
)

GOLDEN_LAMBDA = reference.GOLDEN_LAMBDA


def resolve(
    family: str, p: int | None, m: int | None, form: str
) -> tuple[CodeSpec, Callable[[CodeSpec, int], TransformSpec]]:
    """Selector -> (code, build), called as build(code, lambda); ValueError if none."""
    p = None if p is None else require_integer(p, "p")
    m = None if m is None else require_integer(m, "m")
    if family == "hamming74":
        if form != "standard":
            raise ValueError("hamming74 is the fixed systematic fixture; use --form standard")
        return hamming74_systematic(), build_standard
    if family == "hamming":
        if p is None or m is None:
            raise ValueError("--code hamming needs --p and --m")
        if form == "extended":
            raise ValueError("no extended form is defined for the Hamming family")
        if form == "cyclic":
            return cyclic_hamming_spec(p, m), build_cyclic
        return hamming_parity_check(p, m), build_standard
    if family == "golay":
        if p not in (2, 3):
            raise ValueError("--code golay needs --p 2 or --p 3")
        if form == "cyclic":
            return golay_spec("binary" if p == 2 else "ternary"), build_cyclic
        if form == "extended":
            if p != 3:
                raise ValueError("the extended construction is defined over GF(3)")
            return golay_spec("extended_ternary"), build_extended_golay
        return golay_spec("ternary_systematic" if p == 3 else "binary"), build_standard
    if family == "control":
        if form != "standard":
            raise ValueError("the control code only has a standard form")
        return shortened_hamming_6_3(), build_standard
    raise ValueError(f"unknown code family {family!r}")


@dataclass(frozen=True)
class GoldenTarget:
    """A selector and the frozen claims about its build at GOLDEN_LAMBDA.

    Every golden row claims "witness" (None: must NOT certify as perfect).
    """

    name: str
    family: str  # hamming | hamming74 | golay | control
    p: int
    m: int | None
    form: str  # standard | cyclic | extended
    claims: dict

    def build(self) -> TransformSpec:
        code, build = resolve(self.family, self.p, self.m, self.form)
        return build(code, GOLDEN_LAMBDA)


GOLDEN_TARGETS = (
    GoldenTarget("hamming74", "hamming74", 2, 3, "standard", dict(
        matrix=(2, reference.HAMMING74_TRANSFORM),
        det=reference.HAMMING74_TRANSFORM_DET,
        generator=(2, reference.HAMMING74_GENERATOR),
        witness=1,
    )),
    GoldenTarget("hamming13", "hamming", 3, 3, "standard", dict(
        parity=(3, reference.TERNARY_HAMMING13_PARITY),
        matrix=(3, reference.TERNARY_HAMMING13_TRANSFORM),
        det=reference.TERNARY_HAMMING13_TRANSFORM_DET,
        witness=1,
    )),
    GoldenTarget("hamming7-cyclic", "hamming", 2, 3, "cyclic", dict(
        parity=(2, reference.CYCLIC_HAMMING7_PARITY),
        inflated=(2, reference.CYCLIC_HAMMING7_INFLATED),
        matrix=(2, reference.CYCLIC_HAMMING7_TRANSFORM),
        det=reference.CYCLIC_HAMMING7_TRANSFORM_DET,
        witness=1,
    )),
    GoldenTarget("golay23-cyclic", "golay", 2, None, "cyclic", dict(
        matrix=(2, reference.BINARY_GOLAY23_TRANSFORM),
        det=reference.BINARY_GOLAY23_TRANSFORM_DET,
        witness=3,
    )),
    GoldenTarget("golay11-cyclic", "golay", 3, None, "cyclic", dict(
        matrix=(3, reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM),
        det=reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM_DET,
        order=reference.TERNARY_GOLAY11_CYCLIC_ORDER,
        charpoly=reference.TERNARY_GOLAY11_CYCLIC_CHARPOLY,
        charpoly_factors=reference.TERNARY_GOLAY11_CYCLIC_CHARPOLY_FACTORS,
        witness=2,
    )),
    GoldenTarget("golay11-systematic", "golay", 3, None, "standard", dict(
        matrix=(3, reference.TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM),
        det=reference.TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM_DET,
        charpoly=reference.TERNARY_GOLAY11_SYSTEMATIC_CHARPOLY,
        witness=2,
    )),
    GoldenTarget("extended-golay12", "golay", 3, None, "extended", dict(
        matrix=(3, reference.EXTENDED_GOLAY12_TRANSFORM),
        inverse=(3, reference.EXTENDED_GOLAY12_INVERSE),
        det=reference.EXTENDED_GOLAY12_TRANSFORM_DET,
        witness=None,
    )),
    GoldenTarget("control63", "control", 2, None, "standard", dict(
        det=reference.SHORTENED63_TRANSFORM_DET,
        witness=None,
    )),
)


def select_targets(
    family: str | None = None,
    p: int | None = None,
    m: int | None = None,
    form: str | None = None,
) -> list[GoldenTarget]:
    """Golden targets matching a CLI selector; empty list if none do.

    A Hamming selector that matches no golden target still verifies:
    the construction is built dynamically and run through the generic
    checks (there are just no stored matrices to compare against).
    """
    out = []
    for t in GOLDEN_TARGETS:
        if family is not None and t.family != family:
            continue
        if p is not None and t.p != p:
            continue
        if m is not None and t.m is not None and t.m != m:
            continue
        if form is not None and t.form != form:
            continue
        out.append(t)
    if not out and family == "hamming" and p is not None and m is not None:
        form = form or "standard"
        if form in ("standard", "cyclic"):
            out.append(GoldenTarget(f"hamming-p{p}-m{m}-{form}", "hamming", p, m, form, {}))
    return out


def _power_text(p: int, k: int) -> str:
    """p**k in decimal, or "p^k" when the decimal is longer than Python converts."""
    # sys.get_int_max_str_digits is absent before Python 3.10.7, which has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return f"{p}^{k}" if limit and p**k >= 10**limit else str(p**k)


def _matched(name: str, ok: bool, expected: str) -> CheckResult:
    return CheckResult(name, ok, expected, "match" if ok else "mismatch")


def run_target(
    target: GoldenTarget, t: TransformSpec, trials: int = 1000, seed: int = 1234
) -> tuple[str, list[CheckResult]]:
    """Run every applicable check on t, the target's build.

    The target's own claims come first, then the sampled checks of
    verify_properties, which include the round trip and, for cyclic builds,
    inverse_is_circulant. Returns (summary line, check results). The summary
    always contains "det≠0" when the determinant is nonzero, and "order=<e>"
    when the multiplicative order was computed for this target. Only the
    stored claims, and verify_properties when the shift certificate fails,
    read the dense views t.matrix and t.inverse_matrix, and only a stored
    generator forms the eigenspace basis, from the rows reduced once here. H is
    not reduced: rref(H) is the code's, kept from its rank check. No code basis
    is formed: codeword_invariance certifies T c = lambda*c for every codeword
    c from the eigenspace's rows and rref(H) by one product of O(r^2 N)
    operations. At lambda = 1, the golden targets' lambda, that is T c = c; at
    any other lambda its "fixed" means fixed up to the factor lambda.
    """
    check_trials(trials, t.n)
    claims = target.claims
    checks: list[CheckResult] = []
    p = t.field.p

    checks.append(CheckResult("det_nonzero", t.det != 0, "nonzero", t.det))
    if "det" in claims:
        checks.append(CheckResult("det_value", t.det == claims["det"], claims["det"], t.det))

    stored = (
        ("parity", "parity_matrix", "stored parity rows", lambda: t.code.H),
        ("inflated", "inflated_matrix", "stored circulant",
         lambda: t.matrix - FieldMatrix.identity(t.field, t.n).scaled(t.lam)),
        ("matrix", "transform_matrix", "stored matrix", lambda: t.matrix),
        ("inverse", "inverse_matrix", "stored inverse", lambda: t.inverse_matrix),
    )
    for key, name, expected, got in stored:
        if key in claims:
            checks.append(_matched(name, got() == reference.matrix(*claims[key]), expected))

    order = None
    if "order" in claims:
        order = multiplicative_order(t.matrix)
        checks.append(
            CheckResult(
                "multiplicative_order",
                order == claims["order"],
                f"order={claims['order']}",
                f"order={order}",
            )
        )

    if "charpoly" in claims:
        cp = char_poly(t.matrix)
        want_poly = FieldPoly(claims["charpoly"], t.field)
        checks.append(
            CheckResult(
                "characteristic_polynomial",
                cp == want_poly,
                str(want_poly),
                str(cp),
            )
        )
        if "charpoly_factors" in claims:
            product = FieldPoly.one(t.field)
            for coeffs, mult in claims["charpoly_factors"]:
                product = product * (FieldPoly(coeffs, t.field) ** mult)
            checks.append(
                CheckResult(
                    "charpoly_factorization",
                    product == cp,
                    str(cp),
                    str(product),
                )
            )

    rows = eigenspace_rows(t)
    dim = t.n - rows.rows
    checks.append(CheckResult("eigenspace_dim", dim == t.code.k, t.code.k, dim))

    code_rows = t.code.reduced.data  # equal reduced rows: identical canonical bases
    same = np.array_equal(rows.data, code_rows)
    checks.append(_matched("eigenspace_equals_code", same, "canonical bases identical"))

    if "generator" in claims:
        ok = rref(reference.matrix(*claims["generator"]))[0] == kernel_basis(rows)
        checks.append(_matched("generator_row_space", ok, "stored generator spans eigenspace"))

    # the witness comes from the eigenspace's rows, not from the code's k
    witness = perfect_code_witness(rows)
    if "witness" not in claims:
        checks.append(CheckResult("perfect_witness_computed", True, "informational", witness))
    elif claims["witness"] is None:
        got = "none" if witness is None else witness
        checks.append(CheckResult("perfect_witness", witness is None, "none", got))
    else:
        want = claims["witness"]
        checks.append(CheckResult("perfect_witness", witness == want, want, witness))

    # T c = lambda c for every codeword c exactly when ker H lies in ker(T - lambda*I),
    # the kernel of the eigenspace's rows: when each of them is in H's row space, so
    # equals its entries at rref(H)'s pivots times rref(H)'s rows
    fixed = np.array_equal(rows.data, mulmod(rows.data[:, list(t.code.pivots)], code_rows, p))
    checks.append(
        CheckResult(
            "codeword_invariance",
            fixed,
            f"all {_power_text(p, t.code.k)} codewords fixed",
            "fixed" if fixed else "moved",
        )
    )

    checks.extend(verify_properties(t, trials=trials, seed=seed).checks)

    summary = (
        f"target {target.name} code={t.code.label} p={p} N={t.n} lambda={t.lam} "
        f"det={t.det} (det≠0) dim={dim}"
    )
    if order is not None:
        summary += f" order={order}"
    return summary, checks
