"""Command-line interface.

Subcommands: gen (emit a transform matrix), apply (transform a vector),
invert (apply the inverse), eigen (admissible-eigenvalue table and
eigenspace basis), verify (rebuild golden constructions and check all
stored claims), info (code parameters and perfectness).

Transforms are selected either with --code/--p/--m/--form/--lambda or,
for apply/invert, loaded from a serialized matrix file via --transform.
"""

from __future__ import annotations

import argparse
import sys

from .codes import (
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    perfect_witness,
    shortened_hamming_6_3,
)
from .matrix import (
    format_matrix_json,
    format_matrix_text,
    inverse,
    kernel_basis,
    parse_matrix,
)
from .transforms import (
    EXTENDED_GOLAY_COMBINATION_PAIRS,
    InflationStrategy,
    build_cyclic,
    build_extended_golay,
    build_standard,
    eigen_candidates,
    format_transform,
    inflate,
)
from .verify import run_target, select_targets


class CliError(Exception):
    """User-facing failure; printed to stderr with exit status 1."""


def _add_selector(sub: argparse.ArgumentParser, with_lambda: bool = True) -> None:
    sub.add_argument(
        "--code",
        choices=["hamming", "hamming74", "golay", "control"],
        help="code family",
    )
    sub.add_argument("--p", type=int, help="field characteristic (prime)")
    sub.add_argument("--m", type=int, help="number of parity checks (Hamming family)")
    sub.add_argument(
        "--form",
        choices=["standard", "cyclic", "extended"],
        default="standard",
        help="construction form (default: standard)",
    )
    if with_lambda:
        sub.add_argument(
            "--lambda",
            dest="lam",
            type=int,
            default=1,
            help="diagonal eigenvalue (default: 1)",
        )


def _resolve_spec(args):
    """Selector -> (CodeSpec, form). Raises CliError on bad combinations."""
    if args.code is None:
        raise CliError("a --code selector is required here")
    if args.code == "hamming74":
        if args.form != "standard":
            raise CliError("hamming74 is the fixed systematic fixture; use --form standard")
        return hamming74_systematic(), "standard"
    if args.code == "hamming":
        if args.p is None or args.m is None:
            raise CliError("--code hamming needs --p and --m")
        if args.form == "extended":
            raise CliError("no extended form is defined for the Hamming family")
        if args.form == "cyclic":
            return cyclic_hamming_spec(args.p, args.m), "cyclic"
        return hamming_parity_check(args.p, args.m), "standard"
    if args.code == "golay":
        if args.p not in (2, 3):
            raise CliError("--code golay needs --p 2 or --p 3")
        if args.form == "cyclic":
            return golay_spec("binary" if args.p == 2 else "ternary"), "cyclic"
        if args.form == "extended":
            if args.p != 3:
                raise CliError("the extended construction is defined over GF(3)")
            return golay_spec("extended_ternary"), "extended"
        if args.p == 3:
            return golay_spec("ternary_systematic"), "standard"
        return golay_spec("binary"), "standard"
    if args.code == "control":
        if args.form != "standard":
            raise CliError("the control code only has a standard form")
        return shortened_hamming_6_3(), "standard"
    raise CliError(f"unknown code family {args.code!r}")


def _build_transform(args):
    spec, form = _resolve_spec(args)
    if form == "cyclic":
        return build_cyclic(spec, args.lam)
    if form == "extended":
        return build_extended_golay(args.lam)
    return build_standard(spec, args.lam)


def _parse_vector(text: str, p: int, n: int):
    try:
        vals = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError(f"vector must be comma-separated integers: {exc}") from None
    if len(vals) != n:
        raise CliError(f"expected a length-{n} vector, got {len(vals)} entries")
    bad = [v for v in vals if not 0 <= v < p]
    if bad:
        raise CliError(f"vector entries must be residues in [0,{p}): offending {bad}")
    return vals


def _load_matrix(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except (ValueError, KeyError) as exc:
        raise CliError(f"cannot parse matrix from {path}: {exc}") from None


def _cmd_gen(args) -> int:
    t = _build_transform(args)
    text = format_matrix_json(t.matrix) + "\n" if args.json else format_transform(t)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _apply_like(args, inverted: bool) -> int:
    if args.transform:
        matrix = _load_matrix(args.transform)
        if inverted:
            matrix = inverse(matrix)
        vec = _parse_vector(args.vector, matrix.field.p, matrix.cols)
        out = matrix.mat_vec(vec)
    else:
        t = _build_transform(args)
        vec = _parse_vector(args.vector, t.field.p, t.n)
        out = t.apply_inverse(vec) if inverted else t.apply(vec)
    print(",".join(str(int(x)) for x in out))
    return 0


def _cmd_apply(args) -> int:
    return _apply_like(args, inverted=False)


def _cmd_invert(args) -> int:
    return _apply_like(args, inverted=True)


def _cmd_eigen(args) -> int:
    spec, form = _resolve_spec(args)
    if form == "cyclic":
        strategy = InflationStrategy.cyclic_shifts()
    elif form == "extended":
        strategy = InflationStrategy.row_combinations(EXTENDED_GOLAY_COMBINATION_PAIRS)
    else:
        strategy = InflationStrategy.null_rows()
    print(f"code {spec.label} p={spec.field.p} N={spec.N} k={spec.k}")
    for lam, det in eigen_candidates(spec, strategy):
        status = "admissible" if det != 0 else "unsuitable"
        print(f"lambda={lam} det={det} {status}")
    basis = kernel_basis(inflate(spec, strategy))
    print(f"eigenspace dim={basis.rows}")
    sys.stdout.write(format_matrix_text(basis))
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    targets = select_targets(args.code, args.p, args.m, args.form)
    if not targets:
        raise CliError("no verification target matches the selector")
    all_ok = True
    total = 0
    for target in targets:
        summary, checks = run_target(target, trials=args.trials, seed=args.seed)
        print(summary)
        for check in checks:
            print(check.line())
            total += 1
        all_ok = all_ok and all(c.passed for c in checks)
    print(
        f"verified {len(targets)} target(s), {total} checks: "
        + ("all passed" if all_ok else "FAILURES PRESENT")
    )
    return 0 if all_ok else 1


def _cmd_info(args) -> int:
    spec, form = _resolve_spec(args)
    print(f"code {spec.label} over GF({spec.field.p})")
    print(f"N={spec.N} k={spec.k} d={spec.d if spec.d is not None else '?'}")
    if spec.h is not None:
        print(f"h(x) = {spec.h}")
    witness = perfect_witness(spec.field.p, spec.N, spec.k)
    if witness is None:
        print("perfect: no (sphere-packing equality fails for every radius)")
    else:
        print(f"perfect: yes, witness radius t={witness}")
    print(f"default construction form: {form}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfectnt",
        description="Transforms over GF(p) built from perfect linear block codes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a transform matrix")
    _add_selector(gen)
    gen.add_argument("--out", help="write to a file instead of stdout")
    gen.add_argument("--json", action="store_true", help="emit the JSON matrix form")
    gen.set_defaults(func=_cmd_gen)

    apply_p = subs.add_parser("apply", help="apply a transform to a vector")
    _add_selector(apply_p)
    apply_p.add_argument("--transform", help="read the matrix from a serialized file")
    apply_p.add_argument("--vector", required=True, help="comma-separated residues")
    apply_p.set_defaults(func=_cmd_apply)

    invert = subs.add_parser("invert", help="apply the inverse transform to a vector")
    _add_selector(invert)
    invert.add_argument("--transform", help="read the matrix from a serialized file")
    invert.add_argument("--vector", required=True, help="comma-separated residues")
    invert.set_defaults(func=_cmd_invert)

    eigen = subs.add_parser(
        "eigen", help="admissible eigenvalues and the eigenspace basis"
    )
    _add_selector(eigen, with_lambda=False)
    eigen.set_defaults(func=_cmd_eigen)

    ver = subs.add_parser("verify", help="rebuild golden constructions, check claims")
    _add_selector(ver, with_lambda=False)
    ver.add_argument("--trials", type=int, default=1000, help="randomized trials per check")
    ver.add_argument("--seed", type=int, default=1234, help="RNG seed")
    # no filter unless the user passes --form: a bare `verify` runs everything
    ver.set_defaults(func=_cmd_verify, form=None)

    info = subs.add_parser("info", help="code parameters and perfectness")
    _add_selector(info, with_lambda=False)
    info.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
