"""Seeded operations and output checks shared by the cold and in-process runs.

Nothing here imports perfectnt: the operations are CLI argument lists and
the checks read the program's output bytes, so the same code serves the
cold runs (a fresh `python -m perfectnt.cli` per command) and the traced
in-process runs (`perfectnt.cli.main(argv)`).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("golden-verify", "large-build", "apply-stream")

HERE = Path(__file__).resolve().parent

# Cyclic Hamming over GF(2), m=8: N=255, k=247. Only lambda=1 is admissible.
CYCLIC255 = ["--code", "hamming", "--p", "2", "--m", "8", "--form", "cyclic"]
# Standard Hamming over GF(7), m=4: N=400, k=396. Every lambda in 1..6 is admissible.
HAMMING400 = ["--code", "hamming", "--p", "7", "--m", "4"]
HAMMING400_P = 7
HAMMING400_N = 400
HAMMING400_LAMBDAS = range(1, 7)

VERIFY_TRIALS = 1000
VERIFY_LAST_LINE = "verified 8 target(s), 103 checks: all passed"

# The five commands of one large-build round, in the order they run.
LARGE_BUILD_KINDS = ("gen255", "gen400", "eigen255", "eigen400", "invert400")

# One apply-stream cycle: per transform, this many single-vector round trips,
# then BATCH vectors through the batched product, BATCH_CALL vectors per call.
# Calls of 64 vectors are short enough that the fastest of them see the machine
# uncontended (see README.md).
SINGLES_PER_TRANSFORM = 128
BATCH = 1024
BATCH_CALL = 64

# Digests of the program's output recorded at the commit named in the file.
# They are reference data: a mismatch is a failed operation, never a reason
# to rewrite the file.
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))["sha256"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_argv(rng: random.Random) -> list[str]:
    return ["verify", "--seed", str(rng.randrange(2**31)), "--trials", str(VERIFY_TRIALS)]


def check_verify(out: bytes) -> str | None:
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines or lines[-1] != VERIFY_LAST_LINE:
        return f"verify: last line {lines[-1] if lines else ''!r}, not {VERIFY_LAST_LINE!r}"
    if sha256(out) != DIGESTS["verify-trials1000"]:
        return "verify: output differs from the recorded digest"
    return None


def gen400_argv(lam: int, out_path: str | None = None) -> list[str]:
    argv = ["gen", *HAMMING400, "--lambda", str(lam)]
    return argv + ["--out", out_path] if out_path else argv


def large_build_round(rng: random.Random, matrix_path: str) -> list[tuple[str, list[str], object]]:
    """One round: (kind, argv, expectation) for each of LARGE_BUILD_KINDS.

    The expectation is a digest key, or for invert400 the input vector.
    """
    lam = rng.choice(HAMMING400_LAMBDAS)
    vec = [rng.randrange(HAMMING400_P) for _ in range(HAMMING400_N)]
    return [
        ("gen255", ["gen", *CYCLIC255, "--lambda", "1"], "gen-cyclic255-lambda1"),
        ("gen400", gen400_argv(lam), f"gen-hamming400-lambda{lam}"),
        ("eigen255", ["eigen", *CYCLIC255], "eigen-cyclic255"),
        ("eigen400", ["eigen", *HAMMING400], "eigen-hamming400"),
        (
            "invert400",
            ["invert", "--transform", matrix_path, "--vector", ",".join(map(str, vec))],
            vec,
        ),
    ]


def read_matrix_file(text: str) -> tuple[int, np.ndarray]:
    """(p, rows) from a `gen` text file: header line, "p rows cols", rows."""
    lines = text.splitlines()
    p, nrows, _ = (int(t) for t in lines[1].split())
    rows = np.array([[int(t) for t in ln.split()] for ln in lines[2 : 2 + nrows]], dtype=np.int64)
    return p, rows


def check_large_build(kind: str, out: bytes, expect, matrix: tuple[int, np.ndarray]) -> str | None:
    if kind != "invert400":
        if sha256(out) != DIGESTS[expect]:
            return f"{kind}: output differs from the recorded digest {expect}"
        return None
    p, t = matrix
    try:
        got = np.array([int(x) for x in out.decode().strip().split(",")], dtype=np.int64)
    except ValueError:
        return f"{kind}: output is not a comma-separated vector"
    if got.shape != (t.shape[1],) or not np.array_equal((t @ got) % p, np.array(expect) % p):
        return f"{kind}: T * output != input vector"
    return None
