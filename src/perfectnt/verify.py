"""Golden verification: rebuild reference transforms, check every claim.

Each target names one construction, a builder for it, and the frozen
claims it must satisfy (stored matrices, determinants, characteristic
polynomials, multiplicative order, eigenspace facts, sphere-packing
witnesses). Checks are emitted as CheckResult lines so the CLI can
print them directly; everything here is recomputed from scratch on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import reference
from .codes import (
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    shortened_hamming_6_3,
)
from .matrix import (
    char_poly,
    circulant_from_first_row,
    kernel_basis,
    mulmod,
    multiplicative_order,
    rref,
)
from .poly import FieldPoly
from .transforms import (
    CheckResult,
    InflationStrategy,
    TransformSpec,
    build_cyclic,
    build_extended_golay,
    build_standard,
    eigenspace,
    inflate,
    is_perfect_transform,
    verify_properties,
)

GOLDEN_LAMBDA = reference.GOLDEN_LAMBDA


@dataclass(frozen=True)
class GoldenTarget:
    name: str
    family: str  # hamming | hamming74 | golay | control
    p: int
    m: int | None
    form: str  # standard | cyclic | extended
    build: Callable[[], TransformSpec]


GOLDEN_TARGETS = (
    GoldenTarget("hamming74", "hamming74", 2, 3, "standard",
                 lambda: build_standard(hamming74_systematic(), GOLDEN_LAMBDA)),
    GoldenTarget("hamming13", "hamming", 3, 3, "standard",
                 lambda: build_standard(hamming_parity_check(3, 3), GOLDEN_LAMBDA)),
    GoldenTarget("hamming7-cyclic", "hamming", 2, 3, "cyclic",
                 lambda: build_cyclic(cyclic_hamming_spec(2, 3), GOLDEN_LAMBDA)),
    GoldenTarget("golay23-cyclic", "golay", 2, None, "cyclic",
                 lambda: build_cyclic(golay_spec("binary"), GOLDEN_LAMBDA)),
    GoldenTarget("golay11-cyclic", "golay", 3, None, "cyclic",
                 lambda: build_cyclic(golay_spec("ternary"), GOLDEN_LAMBDA)),
    GoldenTarget("golay11-systematic", "golay", 3, None, "standard",
                 lambda: build_standard(golay_spec("ternary_systematic"), GOLDEN_LAMBDA)),
    GoldenTarget("extended-golay12", "golay", 3, None, "extended",
                 lambda: build_extended_golay(GOLDEN_LAMBDA)),
    GoldenTarget("control63", "control", 2, None, "standard",
                 lambda: build_standard(shortened_hamming_6_3(), GOLDEN_LAMBDA)),
)

# Frozen claims per target. "witness" is always present: None means the
# construction must NOT certify as perfect.
_CLAIMS: dict[str, dict] = {
    "hamming74": dict(
        matrix=(2, reference.HAMMING74_TRANSFORM),
        det=reference.HAMMING74_TRANSFORM_DET,
        generator=(2, reference.HAMMING74_GENERATOR),
        witness=1,
    ),
    "hamming13": dict(
        parity=(3, reference.TERNARY_HAMMING13_PARITY),
        matrix=(3, reference.TERNARY_HAMMING13_TRANSFORM),
        det=reference.TERNARY_HAMMING13_TRANSFORM_DET,
        witness=1,
    ),
    "hamming7-cyclic": dict(
        parity=(2, reference.CYCLIC_HAMMING7_PARITY),
        inflated=(2, reference.CYCLIC_HAMMING7_INFLATED),
        matrix=(2, reference.CYCLIC_HAMMING7_TRANSFORM),
        det=reference.CYCLIC_HAMMING7_TRANSFORM_DET,
        witness=1,
    ),
    "golay23-cyclic": dict(
        matrix=(2, reference.BINARY_GOLAY23_TRANSFORM),
        det=reference.BINARY_GOLAY23_TRANSFORM_DET,
        witness=3,
    ),
    "golay11-cyclic": dict(
        matrix=(3, reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM),
        det=reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM_DET,
        order=reference.TERNARY_GOLAY11_CYCLIC_ORDER,
        charpoly=reference.TERNARY_GOLAY11_CYCLIC_CHARPOLY,
        charpoly_factors=reference.TERNARY_GOLAY11_CYCLIC_CHARPOLY_FACTORS,
        witness=2,
    ),
    "golay11-systematic": dict(
        matrix=(3, reference.TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM),
        det=reference.TERNARY_GOLAY11_SYSTEMATIC_TRANSFORM_DET,
        charpoly=reference.TERNARY_GOLAY11_SYSTEMATIC_CHARPOLY,
        witness=2,
    ),
    "extended-golay12": dict(
        matrix=(3, reference.EXTENDED_GOLAY12_TRANSFORM),
        inverse=(3, reference.EXTENDED_GOLAY12_INVERSE),
        det=reference.EXTENDED_GOLAY12_TRANSFORM_DET,
        witness=None,
    ),
    "control63": dict(
        det=reference.SHORTENED63_TRANSFORM_DET,
        witness=None,
    ),
}


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
        chosen_form = form or "standard"
        if chosen_form == "standard":
            build = lambda: build_standard(hamming_parity_check(p, m), GOLDEN_LAMBDA)
        elif chosen_form == "cyclic":
            build = lambda: build_cyclic(cyclic_hamming_spec(p, m), GOLDEN_LAMBDA)
        else:
            return []
        out.append(
            GoldenTarget(
                f"hamming-p{p}-m{m}-{chosen_form}", "hamming", p, m, chosen_form, build
            )
        )
    return out


def _matched(name: str, ok: bool, expected: str) -> CheckResult:
    return CheckResult(name, ok, expected, "match" if ok else "mismatch")


def run_target(
    target: GoldenTarget, trials: int = 1000, seed: int = 1234
) -> tuple[str, list[CheckResult]]:
    """Build the target and run every applicable check.

    Returns (summary line, check results). The summary always contains
    "det≠0" when the determinant is nonzero, and "order=<e>" when the
    multiplicative order was computed for this target.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    t = target.build()
    claims = _CLAIMS.get(target.name, {})
    checks: list[CheckResult] = []
    p = t.field.p

    checks.append(CheckResult("det_nonzero", t.det != 0, "nonzero", t.det))
    if "det" in claims:
        checks.append(CheckResult("det_value", t.det == claims["det"], claims["det"], t.det))

    stored = (
        ("parity", "parity_matrix", "stored parity rows", lambda: t.code.H),
        ("inflated", "inflated_matrix", "stored circulant",
         lambda: inflate(t.code, InflationStrategy.cyclic_shifts())),
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

    es = eigenspace(t)
    dim = es.rows
    checks.append(CheckResult("eigenspace_dim", dim == t.code.k, t.code.k, dim))

    code_basis = kernel_basis(t.code.H)
    checks.append(_matched("eigenspace_equals_code", es == code_basis, "canonical bases identical"))

    if "generator" in claims:
        ok = rref(reference.matrix(*claims["generator"]))[0] == es
        checks.append(_matched("generator_row_space", ok, "stored generator spans eigenspace"))

    perfect, witness, wdim = is_perfect_transform(t)
    want_witness = claims.get("witness")
    if want_witness is None and "witness" in claims:
        ok = not perfect and witness is None
        checks.append(CheckResult("perfect_witness", ok, "none", witness if witness is not None else "none"))
    elif "witness" in claims:
        ok = perfect and witness == want_witness
        checks.append(CheckResult("perfect_witness", ok, want_witness, witness))
    else:
        checks.append(
            CheckResult("perfect_witness_computed", True, "informational", witness)
        )

    # T is linear, so fixing a basis of the code fixes all p^k codewords
    fixed = np.array_equal(mulmod(code_basis, t.matrix.transpose(), p), code_basis.data)
    checks.append(
        CheckResult(
            "codeword_invariance",
            fixed,
            f"all {p ** code_basis.rows} codewords fixed",
            "fixed" if fixed else "moved",
        )
    )

    rng = np.random.default_rng(seed)
    vs = rng.integers(0, p, size=(trials, t.n), dtype=np.int64)
    forward = mulmod(vs, t.matrix.transpose(), p)
    back = mulmod(forward, t.inverse_matrix.transpose(), p)
    rt_fails = int(np.count_nonzero(np.any(back != vs, axis=1)))
    checks.append(
        CheckResult(
            "round_trip",
            rt_fails == 0,
            f"0/{trials} failures",
            f"{rt_fails}/{trials} failures",
        )
    )

    if t.form == "cyclic":
        circ = circulant_from_first_row(t.field, t.inverse_matrix.data[0])
        checks.append(_matched("inverse_is_circulant", circ == t.inverse_matrix, "circulant closure"))

    checks.extend(verify_properties(t, trials=trials, seed=seed).checks)

    summary = (
        f"target {target.name} code={t.code.label} p={p} N={t.n} lambda={t.lam} "
        f"det={t.det} (det≠0) dim={dim}"
    )
    if order is not None:
        summary += f" order={order}"
    return summary, checks
