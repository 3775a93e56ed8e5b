"""Command-line interface.

Subcommands: gen (emit a transform matrix), apply (transform a vector),
invert (apply the inverse), eigen (admissible-eigenvalue table and
eigenspace basis), verify (rebuild golden constructions and check all
stored claims), info (code parameters and perfectness).

Transforms are selected either with --code/--p/--m/--form/--lambda, read by
verify.resolve as verify's targets are, or, for apply/invert, loaded from a
serialized matrix file via --transform.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .codes import perfect_code_witness
from .matrix import (
    FieldMatrix,
    format_matrix_json,
    format_matrix_text,
    kernel_basis,
    parse_matrix,
    rref,
)
from .transforms import check_trials, eigen_candidates, format_transform
from .verify import resolve, run_target, select_targets


# gen writes an N x N matrix and eigen a k x N basis; past this many entries
# (128 MiB in int64) each is refused before anything is built or printed
MAX_OUTPUT_ENTRIES = 2**24


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


def _resolve(args):
    if args.code is None:
        raise CliError("a --code selector is required here")
    return resolve(args.code, args.p, args.m, args.form)


def _check_output(what: str, rows: int, cols: int) -> None:
    """Refuse an output of rows x cols entries past MAX_OUTPUT_ENTRIES."""
    if rows * cols > MAX_OUTPUT_ENTRIES:
        raise CliError(
            f"{what} has {rows} x {cols} entries, above the bound 2**24 = {MAX_OUTPUT_ENTRIES}"
        )


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
    code, build = _resolve(args)
    _check_output("gen's N x N matrix", code.N, code.N)
    t = build(code, args.lam)
    text = format_matrix_json(t.matrix) + "\n" if args.json else format_transform(t)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _solve(matrix: FieldMatrix, text: str) -> np.ndarray:
    """T^-1 v for the vector in `text`, from one RREF of [T | v].

    A non-square T is refused first, then a singular one, even when the
    vector is also bad, and only then a bad vector.
    """
    if matrix.rows != matrix.cols:
        raise CliError(f"inverse needs a square matrix, got {matrix.shape}")
    n = matrix.rows
    try:
        vec, bad_vector = _parse_vector(text, matrix.field.p, n), None
    except CliError as exc:
        vec, bad_vector = [0] * n, exc
    augmented = FieldMatrix(matrix.field, np.column_stack([matrix.data, vec]))
    reduced, _, pivots = rref(augmented)
    if pivots[:n] != tuple(range(n)):
        raise CliError(f"matrix is singular over {matrix.field!r} (determinant = 0)")
    if bad_vector is not None:
        raise bad_vector
    return reduced.data[:, n]


def _apply_like(args, inverted: bool) -> int:
    if args.transform:
        matrix = _load_matrix(args.transform)
        if inverted:
            out = _solve(matrix, args.vector)
        else:
            out = matrix.mat_vec(_parse_vector(args.vector, matrix.field.p, matrix.cols))
    else:
        code, build = _resolve(args)
        t = build(code, args.lam)
        vec = _parse_vector(args.vector, t.field.p, t.n)
        out = t.apply_inverse(vec) if inverted else t.apply(vec)
    print(",".join(str(int(x)) for x in out))
    return 0


def _cmd_apply(args) -> int:
    return _apply_like(args, inverted=False)


def _cmd_invert(args) -> int:
    return _apply_like(args, inverted=True)


def _cmd_eigen(args) -> int:
    spec, build = _resolve(args)
    _check_output("eigen's k x N eigenspace basis", spec.k, spec.N)
    print(f"code {spec.label} p={spec.field.p} N={spec.N} k={spec.k}")
    for lam, det in eigen_candidates(spec, build):
        status = "admissible" if det != 0 else "unsuitable"
        print(f"lambda={lam} det={det} {status}")
    # every inflation adds only rows in the row space of H, so ker H_e = ker H
    basis = kernel_basis(spec.H)
    print(f"eigenspace dim={basis.rows}")
    sys.stdout.write(format_matrix_text(basis))
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    targets = select_targets(args.code, args.p, args.m, args.form)
    if not targets:
        raise CliError("no verification target matches the selector")
    builds = [target.build() for target in targets]
    for t in builds:  # an oversized --trials is refused before any target prints
        check_trials(args.trials, t.n)
    all_ok = True
    total = 0
    for target, t in zip(targets, builds):
        summary, checks = run_target(target, t, trials=args.trials, seed=args.seed)
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
    spec, _ = _resolve(args)
    print(f"code {spec.label} over GF({spec.field.p})")
    print(f"N={spec.N} k={spec.k} d={spec.d if spec.d is not None else '?'}")
    if spec.h is not None:
        print(f"h(x) = {spec.h}")
    witness = perfect_code_witness(spec.reduced)
    if witness is None:
        print("perfect: no (sphere-packing equality fails for every radius)")
    else:
        print(f"perfect: yes, witness radius t={witness}")
    print(f"default construction form: {args.form}")
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
    ver.add_argument(
        "--seed",
        type=int,
        default=1234,
        help="seed of the trials' SplitMix64 stream (default: 1234)",
    )
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
    except (CliError, ValueError, MemoryError) as exc:
        # numpy's allocation failure is a MemoryError with a one-line message
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
